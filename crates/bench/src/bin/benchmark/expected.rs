//! The simulated outcomes each seed window reproduces.
//!
//! The benchmark times the simulator; these tables hold what it simulates.
//! An untraced run is `correct` only when every simulated outcome it
//! reports equals the value recorded here for its seed's window, to twelve
//! significant digits. Renders are bit-identical across thread counts, so
//! the values repeat to the last bit; the tolerance only absorbs a
//! floating-point sum taken in another order. The values were recorded
//! from untraced runs of seeds 0 to 7.

use crate::cli::Workload;
use crate::Simulated;
use patu_obs::json::num;

/// Input windows a seed selects among.
pub const WINDOWS: u64 = 8;

/// Relative difference below which a simulated outcome counts as equal.
const TOLERANCE: f64 = 1e-12;

/// The input window `seed` selects.
pub fn window(seed: u64) -> u64 {
    seed % WINDOWS
}

/// One workload's record: outcome names, and per window their values.
struct Record {
    names: &'static [&'static str],
    windows: [&'static [f64]; WINDOWS as usize],
}

#[rustfmt::skip]
const HEADLINE: Record = Record {
    names: &[
        "sim_speedup",
        "sim_mssim",
        "sim_energy_ratio",
        "sim_filter_latency_ratio",
    ],
    windows: [
        &[1.5329187084999525, 0.963781972726186, 0.7008307462325997, 0.6397374041717939],
        &[1.5415613575946523, 0.9638114202590214, 0.6985132151499324, 0.637510314892591],
        &[1.5471350435796933, 0.9638830905868893, 0.6968429893471235, 0.6350545973762882],
        &[1.5561678438717716, 0.9639452667463394, 0.6941511991309175, 0.6308857717049444],
        &[1.5562156885390706, 0.9639617119516645, 0.6941609633310886, 0.631007754765289],
        &[1.5437388759118897, 0.964109630811782, 0.6974572370055384, 0.6349399179802132],
        &[1.5412269402942649, 0.964042379742577, 0.6984320260296097, 0.636268687684653],
        &[1.5343442388468558, 0.9637535129274639, 0.7002218354677952, 0.6394402709746974],
    ],
};

#[rustfmt::skip]
const SEQUENCE: Record = Record {
    names: &[
        "sim_speedup",
        "sim_mssim",
        "seq_speedup_orbit",
        "seq_reuse_frac_orbit",
        "seq_speedup_dolly",
        "seq_reuse_frac_dolly",
    ],
    windows: [
        &[1.5943624352484074, 0.9986389167606831, 2.998882955795128, 0.8222635562789016, 1.2899788232266483, 0.24078125],
        &[1.5981712567327993, 0.9986732869098583, 2.9935498944568786, 0.8214672930972172, 1.2953862129712086, 0.24315972222222224],
        &[1.5966762241107355, 0.9987000984450182, 2.960559446507284, 0.8205220800660339, 1.2979899842109324, 0.24482638888888889],
        &[1.6043566779574032, 0.9987076645096143, 3.008607729004636, 0.8199649466467344, 1.3020254969807288, 0.24661458333333333],
        &[1.6065902829107275, 0.998698432619373, 2.9926909659502234, 0.8188280746941404, 1.3063863632683512, 0.24840277777777778],
        &[1.6127441908837061, 0.9986868798732758, 2.99313941420616, 0.8187926374050715, 1.3127912972096525, 0.2504340277777778],
        &[1.6164924454232723, 0.9987018716832002, 2.9808821942179065, 0.818790046576259, 1.318952687124164, 0.2508680555555556],
        &[1.6140841025047397, 0.9986787574986616, 2.9742905087458924, 0.8187688112571708, 1.3190239961806884, 0.2479861111111111],
    ],
};

const SERVE_NAMES: &[&str] = &[
    "sim_speedup",
    "sim_mssim",
    "serve_violation_rate",
    "serve_violation_rate_worst",
    "serve_degrade_rate",
];

#[rustfmt::skip]
const SERVE_CALM: Record = Record {
    names: SERVE_NAMES,
    windows: [
        &[1.3919452405591377, 0.9556273863077164, 0.0598, 0.0598, 0.996],
        &[1.4020693515179201, 0.9548302879691124, 0.037200000000000004, 0.037200000000000004, 0.996],
        &[1.388513615354274, 0.9554711629629136, 0.026600000000000002, 0.026600000000000002, 0.9964],
        &[1.3999132776664343, 0.9552064244270325, 0.042800000000000005, 0.042800000000000005, 0.9956],
        &[1.3992226102470928, 0.9550847458004952, 0.0406, 0.0406, 0.9948],
        &[1.3974254797775594, 0.9547890254616738, 0.0328, 0.0328, 0.9972],
        &[1.4020565901894009, 0.9549484795331955, 0.0344, 0.0344, 0.9974],
        &[1.4004369943523762, 0.9549341269135475, 0.039799999999999995, 0.039799999999999995, 0.9962],
    ],
};

#[rustfmt::skip]
const SERVE_CHAOS: Record = Record {
    names: SERVE_NAMES,
    windows: [
        &[1.4557679271884645, 0.9505643631428685, 0.1374, 0.38280000000000003, 0.9953749934303884],
        &[1.4693311063529146, 0.9499038298094132, 0.14354999999999998, 0.41859999999999997, 0.9967354675652906],
        &[1.4495375360686549, 0.950677130454047, 0.12945, 0.3784, 0.9969627147046501],
        &[1.461330840881812, 0.9504908438158063, 0.1296, 0.37059999999999993, 0.9963914021233199],
        &[1.4616999643488706, 0.9501466873415881, 0.13225, 0.37340000000000007, 0.9945444053926454],
        &[1.461070281445692, 0.950122609924309, 0.13999999999999999, 0.4152, 0.9963161772445006],
        &[1.4666520261647282, 0.9498301580239393, 0.13640000000000002, 0.40180000000000005, 0.9972710574652323],
        &[1.4627343236587378, 0.9502190605719284, 0.13739999999999997, 0.4032, 0.9969038623005877],
    ],
};

fn record(workload: Workload) -> &'static Record {
    match workload {
        Workload::Headline => &HEADLINE,
        Workload::Sequence => &SEQUENCE,
        Workload::ServeCalm => &SERVE_CALM,
        Workload::ServeChaos => &SERVE_CHAOS,
    }
}

/// Every way `simulated` departs from the record of `seed`'s window, one
/// line each; empty when the run reproduced it.
pub fn check(workload: Workload, seed: u64, simulated: &[Simulated]) -> Vec<String> {
    let record = record(workload);
    let w = window(seed);
    let values = record.windows[w as usize];
    let mut problems = Vec::new();
    if values.len() != record.names.len() {
        problems.push(format!(
            "window {w} of `{}` is not recorded",
            workload.name()
        ));
        return problems;
    }
    for (&name, &want) in record.names.iter().zip(values) {
        match simulated.iter().find(|s| s.name == name) {
            None => problems.push(format!("`{name}` is not reported")),
            Some(s) if (s.value - want).abs() > TOLERANCE * want.abs() => problems.push(format!(
                "`{name}` is {} but window {w} records {}",
                num(s.value),
                num(want)
            )),
            Some(_) => {}
        }
    }
    for s in simulated {
        if !record.names.contains(&s.name) {
            problems.push(format!("`{}` has no record", s.name));
        }
    }
    problems
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reported(workload: Workload, w: usize) -> Vec<Simulated> {
        let record = record(workload);
        record
            .names
            .iter()
            .zip(record.windows[w])
            .map(|(&name, &value)| Simulated {
                name,
                value,
                unit: "x",
                paper: None,
            })
            .collect()
    }

    #[test]
    fn every_window_of_every_workload_is_recorded() {
        for workload in Workload::ALL {
            let record = record(workload);
            for values in record.windows {
                assert_eq!(values.len(), record.names.len(), "{}", workload.name());
                assert!(values.iter().all(|v| v.is_finite() && *v >= 0.0));
            }
            assert_eq!(record.names[..2], ["sim_speedup", "sim_mssim"]);
        }
    }

    #[test]
    fn a_reproduced_window_passes_and_any_drift_is_reported() {
        for workload in Workload::ALL {
            let exact = reported(workload, 3);
            assert!(check(workload, 3, &exact).is_empty());
            assert!(
                check(workload, 11, &exact).is_empty(),
                "seed 11 is window 3"
            );

            let mut drifted = reported(workload, 3);
            drifted[0].value *= 1.0 + 1e-9;
            assert_eq!(check(workload, 3, &drifted).len(), 1);

            let mut missing = reported(workload, 3);
            missing.pop();
            missing.push(Simulated {
                name: "stranger",
                value: 1.0,
                unit: "x",
                paper: None,
            });
            assert_eq!(check(workload, 3, &missing).len(), 2);
        }
    }
}
