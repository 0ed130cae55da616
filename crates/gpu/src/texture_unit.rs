//! Texture-unit pipeline timing: address calculation → texel fetch →
//! filtering, with in-order request pipelining.
//!
//! One texture unit serves each shader cluster (Table I). A request is the
//! filtering work for one pixel: `N` trilinear taps of 8 texel addresses
//! each (`N = 1` for plain TF, up to 16 for full AF). The unit is pipelined:
//! back-to-back requests are spaced by the bottleneck stage's occupancy,
//! while each request's *latency* — what the paper's Fig. 18 measures —
//! includes the full fetch round trip.

use crate::config::GpuConfig;
use crate::memsys::MemorySystem;
use crate::stats::EventCounts;
use patu_obs::Log2Histogram;
use patu_texture::TexelAddress;

/// Parallel filtering pipelines per texture unit — one per pixel of a quad
/// (paper Sec. V-D).
const QUAD_PIPELINES: u64 = 4;

/// The filtering work for one pixel, produced by the filtering policy
/// (baseline AF, TF-only, or a PATU decision).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TextureRequest {
    /// Texel addresses per trilinear tap (normally 8 each).
    pub taps: Vec<Vec<TexelAddress>>,
}

impl TextureRequest {
    /// Builds a request from per-tap address lists.
    pub fn new(taps: Vec<Vec<TexelAddress>>) -> TextureRequest {
        TextureRequest { taps }
    }

    /// Number of trilinear taps.
    pub fn tap_count(&self) -> usize {
        self.taps.len()
    }

    /// Total texel addresses across taps.
    pub fn texel_count(&self) -> usize {
        self.taps.iter().map(|t| t.len()).sum()
    }
}

/// Timing outcome of one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestTiming {
    /// Cycles from issue to filtered result (the filtering latency).
    pub latency: u64,
    /// Absolute cycle at which the result is available.
    pub completion: u64,
}

/// One texture unit's pipeline state.
#[derive(Debug, Clone)]
pub struct TextureUnit {
    cluster: usize,
    address_alus: u64,
    fetch_ports: u64,
    cycles_per_trilinear: u64,
    busy_until: u64,
    last_completion: u64,
    events: EventCounts,
    telemetry: bool,
    queue_wait_hist: Log2Histogram,
    attrib_work_cycles: u64,
}

impl TextureUnit {
    /// Creates the texture unit attached to `cluster`.
    pub fn new(cluster: usize, cfg: &GpuConfig) -> TextureUnit {
        TextureUnit {
            cluster,
            address_alus: u64::from(cfg.address_alus),
            fetch_ports: u64::from(cfg.address_alus), // fetch width tracks address width
            cycles_per_trilinear: u64::from(cfg.cycles_per_trilinear),
            busy_until: 0,
            last_completion: 0,
            events: EventCounts::default(),
            telemetry: false,
            queue_wait_hist: Log2Histogram::new(),
            attrib_work_cycles: 0,
        }
    }

    /// Enables or disables queue-depth telemetry (off by default; the
    /// untraced path pays one branch).
    pub fn set_telemetry(&mut self, enabled: bool) {
        self.telemetry = enabled;
    }

    /// Distribution of cycles each request waited for the pipeline to free
    /// up before issuing — the unit's queue-pressure signal (telemetry
    /// only; empty unless [`TextureUnit::set_telemetry`] was enabled).
    pub fn queue_wait_hist(&self) -> &Log2Histogram {
        &self.queue_wait_hist
    }

    /// Total address-calculation plus filtering-math cycles across all
    /// requests — the texture unit's contribution to the attribution
    /// profiler's `texel_fetch` stage (telemetry only; 0 unless
    /// [`TextureUnit::set_telemetry`] was enabled).
    pub fn attrib_work_cycles(&self) -> u64 {
        self.attrib_work_cycles
    }

    /// Issues a request at cycle `now`, fetching texels through `mem`.
    ///
    /// Requests on one unit are processed in order; a request issued while a
    /// previous one occupies the pipeline starts when the pipeline frees up.
    pub fn process(
        &mut self,
        req: &TextureRequest,
        mem: &mut MemorySystem,
        now: u64,
    ) -> RequestTiming {
        // Address ALUs compute one tap's 8 addresses per loop (Sec. V-B):
        // ceil(8 / address_alus) cycles per tap.
        let addr_cycles = req
            .taps
            .iter()
            .map(|t| (t.len() as u64).div_ceil(self.address_alus))
            .sum::<u64>();
        let (taps, texels) = (req.tap_count() as u64, req.texel_count() as u64);
        self.issue(
            taps,
            texels,
            addr_cycles,
            req.taps.iter().flatten(),
            mem,
            now,
        )
    }

    /// Flat-layout form of [`TextureUnit::process`] for the batched
    /// fragment path: `taps` trilinear taps whose addresses lie contiguous
    /// in `addresses`, every tap the same width (`addresses.len() / taps` —
    /// 8 for trilinear taps; the batched filter kernel produces exactly this
    /// layout). Bit-identical to building the equivalent [`TextureRequest`]
    /// and calling `process`: same per-tap address cycles, same fetch issue
    /// order and offsets, same pipeline-occupancy updates.
    pub fn process_flat(
        &mut self,
        addresses: &[TexelAddress],
        taps: u64,
        mem: &mut MemorySystem,
        now: u64,
    ) -> RequestTiming {
        let texels = addresses.len() as u64;
        let per_tap = texels.checked_div(taps).unwrap_or(0);
        debug_assert_eq!(per_tap * taps, texels, "uniform tap width");
        let addr_cycles = taps * per_tap.div_ceil(self.address_alus);
        self.issue(taps, texels, addr_cycles, addresses, mem, now)
    }

    /// The pipeline timing both request layouts share: `taps` taps of
    /// `texels` addresses in all, computed in `addr_cycles`.
    fn issue<'a>(
        &mut self,
        taps: u64,
        texels: u64,
        addr_cycles: u64,
        addresses: impl IntoIterator<Item = &'a TexelAddress>,
        mem: &mut MemorySystem,
        now: u64,
    ) -> RequestTiming {
        let start = now.max(self.busy_until);
        if self.telemetry {
            self.queue_wait_hist.record(start - now);
        }

        // Texel fetches issue `fetch_ports` per cycle once the addresses
        // are computed; the request waits for the slowest outstanding fetch.
        let fetch_latency = mem.fetch_request(
            self.cluster,
            addresses,
            start,
            addr_cycles,
            self.fetch_ports,
        );

        let filter_cycles = taps * self.cycles_per_trilinear;
        let latency = addr_cycles + fetch_latency + filter_cycles;
        if self.telemetry {
            self.attrib_work_cycles += addr_cycles + filter_cycles;
        }

        // Pipeline occupancy: the bottleneck stage gates throughput. The
        // unit runs four filtering pipelines in parallel (one per quad pixel,
        // Sec. V-D), so sustained throughput is 4 requests deep.
        let issue_cycles = texels.div_ceil(self.fetch_ports.max(1));
        let bottleneck = addr_cycles.max(filter_cycles).max(issue_cycles).max(1);
        let occupancy = bottleneck.div_ceil(QUAD_PIPELINES);
        self.busy_until = start + occupancy.max(1);

        self.events.trilinear_ops += taps;
        self.events.address_calc_ops += texels;

        // Results return in request order, like the hardware pipeline.
        let completion = (start + latency).max(self.last_completion);
        self.last_completion = completion;

        RequestTiming {
            latency: completion - now,
            completion,
        }
    }

    /// Cycle at which the pipeline can accept the next request.
    pub fn busy_until(&self) -> u64 {
        self.busy_until
    }

    /// Accumulated ALU event counts (fetch/cache events live in the
    /// [`MemorySystem`]).
    pub fn events(&self) -> EventCounts {
        self.events
    }

    /// Clears pipeline state and counters.
    pub fn reset(&mut self) {
        self.busy_until = 0;
        self.last_completion = 0;
        self.events = EventCounts::default();
        self.queue_wait_hist = Log2Histogram::new();
        self.attrib_work_cycles = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit() -> (TextureUnit, MemorySystem) {
        let cfg = GpuConfig::default();
        (TextureUnit::new(0, &cfg), MemorySystem::new(&cfg))
    }

    fn tap(base: u64) -> Vec<TexelAddress> {
        (0..8).map(|i| TexelAddress::new(base + i * 4)).collect()
    }

    fn trilinear_request(base: u64) -> TextureRequest {
        TextureRequest::new(vec![tap(base)])
    }

    fn aniso_request(base: u64, n: u64) -> TextureRequest {
        TextureRequest::new((0..n).map(|i| tap(base + i * 256)).collect())
    }

    #[test]
    fn request_shape_accessors() {
        let r = aniso_request(0, 4);
        assert_eq!(r.tap_count(), 4);
        assert_eq!(r.texel_count(), 32);
    }

    #[test]
    fn aniso_latency_exceeds_trilinear() {
        let (mut tu, mut mem) = unit();
        let tf = tu.process(&trilinear_request(0), &mut mem, 0);
        tu.reset();
        mem.reset();
        let af = tu.process(&aniso_request(0, 16), &mut mem, 0);
        assert!(
            af.latency > tf.latency,
            "16-tap AF ({}) slower than TF ({})",
            af.latency,
            tf.latency
        );
    }

    #[test]
    fn warm_cache_lowers_latency() {
        let (mut tu, mut mem) = unit();
        let cold = tu.process(&trilinear_request(0), &mut mem, 0);
        let warm = tu.process(&trilinear_request(0), &mut mem, cold.completion);
        assert!(warm.latency < cold.latency);
    }

    #[test]
    fn requests_pipeline_in_order() {
        let (mut tu, mut mem) = unit();
        let a = tu.process(&trilinear_request(0), &mut mem, 0);
        let b = tu.process(&trilinear_request(0), &mut mem, 0);
        assert!(b.completion >= a.completion, "in-order completion");
        assert!(tu.busy_until() > 0);
    }

    #[test]
    fn throughput_gated_by_filter_alus() {
        let (mut tu, mut mem) = unit();
        // Warm the cache first.
        let warmup = tu.process(&aniso_request(0, 16), &mut mem, 0);
        tu.reset();
        // Two warm 16-tap requests: the second starts 16*2/4 = 8 cycles
        // later (filter throughput over the 4 quad pipelines dominates when
        // fetches all hit).
        let t0 = tu.process(&aniso_request(0, 16), &mut mem, warmup.completion);
        let before = tu.busy_until();
        let t1 = tu.process(&aniso_request(0, 16), &mut mem, warmup.completion);
        assert_eq!(before + 8, tu.busy_until());
        assert!(t1.completion >= t0.completion);
    }

    #[test]
    fn events_count_taps_and_texels() {
        let (mut tu, mut mem) = unit();
        let _ = tu.process(&aniso_request(0, 3), &mut mem, 0);
        assert_eq!(tu.events().trilinear_ops, 3);
        assert_eq!(tu.events().address_calc_ops, 24);
        assert_eq!(mem.events().texel_fetches, 24);
    }

    #[test]
    fn queue_wait_telemetry_gates_and_measures_pressure() {
        let (mut tu, mut mem) = unit();
        let _ = tu.process(&trilinear_request(0), &mut mem, 0);
        let _ = tu.process(&trilinear_request(0), &mut mem, 0);
        assert!(tu.queue_wait_hist().is_empty(), "off by default");
        tu.reset();
        mem.reset();
        tu.set_telemetry(true);
        let _ = tu.process(&trilinear_request(0), &mut mem, 0);
        let _ = tu.process(&trilinear_request(0), &mut mem, 0);
        assert_eq!(tu.queue_wait_hist().count(), 2);
        assert!(tu.queue_wait_hist().max() > 0, "second request queued");
        tu.reset();
        assert!(tu.queue_wait_hist().is_empty(), "reset clears telemetry");
    }

    #[test]
    fn process_flat_matches_process() {
        // The flat batched layout must replay to the exact cycle: same
        // latency, completion, pipeline state, events and memory behavior.
        let cfg = GpuConfig::default();
        let mut tu_a = TextureUnit::new(0, &cfg);
        let mut mem_a = MemorySystem::new(&cfg);
        let mut tu_b = TextureUnit::new(0, &cfg);
        let mut mem_b = MemorySystem::new(&cfg);
        tu_a.set_telemetry(true);
        tu_b.set_telemetry(true);

        let requests = [
            aniso_request(0, 8),
            trilinear_request(0x40),
            aniso_request(0x900, 3),
        ];
        let mut now = 0;
        for req in &requests {
            let flat: Vec<TexelAddress> = req.taps.iter().flatten().copied().collect();
            let a = tu_a.process(req, &mut mem_a, now);
            let b = tu_b.process_flat(&flat, req.tap_count() as u64, &mut mem_b, now);
            assert_eq!(a, b);
            assert_eq!(tu_a.busy_until(), tu_b.busy_until());
            now = a.completion / 2; // overlap the next request with the pipe
        }
        assert_eq!(tu_a.events(), tu_b.events());
        assert_eq!(mem_a.events(), mem_b.events());
        assert_eq!(
            tu_a.queue_wait_hist().count(),
            tu_b.queue_wait_hist().count()
        );
        assert_eq!(
            tu_a.attrib_work_cycles(),
            tu_b.attrib_work_cycles(),
            "attribution taps agree between scalar and flat paths"
        );
        assert!(tu_a.attrib_work_cycles() > 0);
    }

    #[test]
    fn attrib_work_cycles_gate_on_telemetry() {
        let (mut tu, mut mem) = unit();
        let _ = tu.process(&aniso_request(0, 4), &mut mem, 0);
        assert_eq!(tu.attrib_work_cycles(), 0, "off by default");
        tu.set_telemetry(true);
        let _ = tu.process(&aniso_request(0, 4), &mut mem, 0);
        // 4 taps: 4 * ceil(8/alus) address cycles + 4 * cycles_per_trilinear.
        let cfg = GpuConfig::default();
        let expected = 4 * 8u64.div_ceil(u64::from(cfg.address_alus))
            + 4 * u64::from(cfg.cycles_per_trilinear);
        assert_eq!(tu.attrib_work_cycles(), expected);
        tu.reset();
        assert_eq!(tu.attrib_work_cycles(), 0, "reset clears the tap");
    }

    #[test]
    fn issue_clock_counts_what_the_division_computed() {
        // Warm fetches all hit L1, so the worst fetch is the last one to
        // issue: `first + (n - 1) / ports` plus the 1-cycle L1 latency.
        let addresses: Vec<TexelAddress> = (0..40).map(|i| TexelAddress::new(i * 4)).collect();
        for ports in 1..=5u64 {
            for n in 1..=addresses.len() {
                let (_, mut mem) = unit();
                let _ = mem.fetch_request(0, &addresses, 0, 0, 1);
                let worst = mem.fetch_request(0, &addresses[..n], 50, 7, ports);
                assert_eq!(
                    worst,
                    7 + (n as u64 - 1) / ports + 1,
                    "ports {ports}, {n} fetches"
                );
            }
        }
    }

    #[test]
    fn process_flat_empty_is_cheap() {
        let (mut tu, mut mem) = unit();
        let t = tu.process_flat(&[], 0, &mut mem, 5);
        assert_eq!(t.latency, 0);
        assert_eq!(t.completion, 5);
    }

    #[test]
    fn empty_request_is_cheap() {
        let (mut tu, mut mem) = unit();
        let t = tu.process(&TextureRequest::default(), &mut mem, 5);
        assert_eq!(t.latency, 0);
        assert_eq!(t.completion, 5);
    }

    #[test]
    fn reset_clears_pipeline() {
        let (mut tu, mut mem) = unit();
        let _ = tu.process(&trilinear_request(0), &mut mem, 0);
        tu.reset();
        assert_eq!(tu.busy_until(), 0);
        assert_eq!(tu.events().trilinear_ops, 0);
    }
}
