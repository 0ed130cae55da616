//! det-rng-discipline fixture: RNG streams crossing a partition boundary.
//! The sanctioned pattern is a fresh `fork(task_id)` child per task; draws
//! from captured or cloned streams make the sequence depend on scheduling.

use patu_gmath::DetRng;
use patu_sim::parallel;

pub fn captured_draw(seed: u64) -> Vec<u64> {
    let mut rng = DetRng::new(seed);
    parallel::run_tasks(4, (0..8).map(|i| Box::new(move || rng.next_u64() + i) as parallel::Task<'_, u64>).collect()) //~ det-rng-discipline
}

pub fn forked_children(seed: u64) -> Vec<u64> {
    let rng = DetRng::new(seed);
    parallel::run_tasks(4, (0..8).map(|i| Box::new(move || {
        let mut child = rng.fork(i);
        child.next_u64()
    }) as parallel::Task<'_, u64>).collect())
}

pub fn reseeded(seed: u64) -> u64 {
    let mut a = DetRng::new(seed);
    let mut b = DetRng::new(a.next_u64()); //~ det-rng-discipline
    b.next_u64()
}

pub fn task_vector(seed: u64) -> Vec<u64> {
    let mut rng = DetRng::new(seed);
    let tasks: Vec<parallel::Task<'_, u64>> = (0..4)
        .map(|i| Box::new(move || rng.next_u64() + i) as parallel::Task<'_, u64>) //~ det-rng-discipline
        .collect();
    parallel::run_tasks(2, tasks)
}

fn draws_in_partition(rng: &mut DetRng) -> Vec<u64> {
    parallel::run_tasks(4, (0..8).map(|i| Box::new(move || rng.next_u64() + i) as parallel::Task<'_, u64>).collect())
}

pub fn calls_helper(seed: u64) -> Vec<u64> {
    let mut rng = DetRng::new(seed);
    draws_in_partition(&mut rng) //~ det-rng-discipline
}

pub fn suppressed(seed: u64) -> Vec<u64> {
    let mut rng = DetRng::new(seed);
    // patu-lint: allow(det-rng-discipline) — fixture: proves pragma coverage
    parallel::run_tasks(4, (0..8).map(|i| Box::new(move || rng.next_u64() + i) as parallel::Task<'_, u64>).collect())
}
