//! parallel-float-fold fixture: float reductions whose grouping or order
//! is shaped by the thread count. The sanctioned path is the ordered merge
//! performed by `parallel::run_tasks` itself.

use patu_sim::parallel;

pub fn grouped(explicit: Option<usize>, vals: &[f64]) -> f64 {
    let t = parallel::thread_count(explicit);
    let mut partials = vec![0.0f64; t];
    for (i, v) in vals.iter().enumerate() {
        partials[i % t] += v; //~ parallel-float-fold
    }
    partials.iter().sum::<f64>() //~ parallel-float-fold
}

pub fn ordered_merge(explicit: Option<usize>) -> f64 {
    let t = parallel::thread_count(explicit);
    let tasks: Vec<parallel::Task<'_, f64>> = (0..8).map(|i| Box::new(move || f64::from(i)) as parallel::Task<'_, f64>).collect();
    let outputs = parallel::run_tasks(t, tasks);
    outputs.iter().sum::<f64>()
}

pub fn chunked(explicit: Option<usize>, vals: &[f64]) -> f64 {
    let t = parallel::thread_count(explicit);
    vals.chunks(t).map(|c| c.iter().sum::<f64>()).sum::<f64>() //~ parallel-float-fold
}

fn reduce_with(groups: usize, vals: &[f64]) -> f64 {
    vals.chunks(groups).map(|c| c.iter().sum::<f64>()).sum::<f64>()
}

pub fn calls_reducer(explicit: Option<usize>, vals: &[f64]) -> f64 {
    let t = parallel::thread_count(explicit);
    reduce_with(t, vals) //~ parallel-float-fold
}

pub fn suppressed(explicit: Option<usize>, vals: &[f64]) -> f64 {
    let t = parallel::thread_count(explicit);
    // patu-lint: allow(parallel-float-fold) — fixture: proves pragma coverage
    vals.chunks(t).map(|c| c.iter().sum::<f64>()).sum::<f64>()
}
