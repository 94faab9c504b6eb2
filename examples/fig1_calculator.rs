//! The paper's Figure 1: the value distribution of a nondeterministic AP
//! client/server application, the single-thread workaround, and the
//! DEAR fix that keeps every call in flight and still always prints 3.
//!
//! ```sh
//! cargo run --release --example fig1_calculator
//! ```

use dear::apd::calculator::{distribution, run_trial, CalculatorConfig};
use dear::apd::det_calculator::run_det_trial;
use dear::observe::ObservabilityReport;
use dear::time::Duration;

fn main() {
    println!("Figure 1 client:");
    println!("    s.set_value(1);   // non-blocking");
    println!("    s.add(2);         // non-blocking");
    println!("    print(s.get_value().get());");
    println!();

    println!("ten runs against the default multi-threaded server:");
    let cfg = CalculatorConfig::default();
    for seed in 0..10 {
        println!("  run {seed}: printed {}", run_trial(seed, &cfg));
    }

    let trials = 10_000;
    let hist = distribution(0, trials, &cfg);
    let max = hist.iter().copied().max().unwrap_or(1);
    println!();
    println!("distribution over {trials} seeded runs (Figure 1's histogram):");
    for (value, &count) in hist.iter().enumerate() {
        let bar = "█".repeat(usize::try_from(count * 40 / max).expect("bar width"));
        println!(
            "  value {value}: p = {:6.4}  {bar}",
            count as f64 / trials as f64
        );
    }
    let distinct_of = |h: &[u64; 4]| h.iter().filter(|&&c| c > 0).count();
    let distinct = distinct_of(&hist);
    let verdict = if distinct == 4 { "YES" } else { "NO" };
    println!("  all four values occur, none is certain: {verdict}");

    let controls = 1_000;
    println!();
    println!("same client against a single-threaded server (the workaround):");
    let st = distribution(0, controls, &CalculatorConfig::single_threaded());
    println!("  histogram over {controls} seeds: {st:?}");

    println!();
    println!("DEAR: reactor client and server, all three calls concurrently in flight:");
    let mut dear_hist = [0u64; 4];
    let mut stp_violations = 0;
    for seed in 0..controls {
        let outcome = run_det_trial(seed, Duration::from_millis(5));
        dear_hist[usize::try_from(outcome.printed).expect("printed value in 0..=3")] += 1;
        stp_violations += outcome.stp_violations;
    }
    println!("  histogram over {controls} seeds: {dear_hist:?}, {stp_violations} STP violations");
    println!();
    println!("the multi-threaded server prints 0, 1, 2 or 3 depending on thread");
    println!("scheduling; the single-threaded one always prints 3 but gives up the");
    println!("concurrency AP was chosen for. The reactor build always prints 3 with");
    println!("every call still in flight concurrently.");
    println!();
    let mut report = ObservabilityReport::new("fig1_calculator");
    report.line("trials", trials);
    report.line("distinct_results[multi_threaded]", distinct);
    report.line("distinct_results[single_threaded]", distinct_of(&st));
    report.line("distinct_results[dear]", distinct_of(&dear_hist));
    print!("{report}");
}
