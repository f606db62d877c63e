//! `figures [NAME…]` — regenerates the paper's §6 evaluation.
//!
//! Each name runs one figure; no name runs them all, in order, in this
//! process, so the models the first figure trains (cached under
//! `target/mocc-cache/`, or `$MOCC_CACHE_DIR`) are parsed once and
//! shared by the rest. A failure is one `error: …` line and exit
//! status 1.

use mocc_bench::figures as f;

/// `(name, title, body)` of every figure, in suite order.
type Figure = (&'static str, &'static str, fn() -> Result<(), String>);

const FIGURES: [Figure; 11] = [
    ("fig1", "motivation experiments", f::fig1::run),
    ("fig5", "performance under parameter sweeps", f::fig5::run),
    ("fig6", "the 100-objective experiment", f::fig6::run),
    ("fig7", "adaptation to a new application", f::fig7::run),
    ("fig8_10", "video, RTC and bulk transfer", f::fig8_10::run),
    ("fig11_15", "fairness and friendliness", f::fig11_15::run),
    ("competition", "fairness under churn", f::competition::run),
    ("fig16", "the landmark count omega", f::fig16::run),
    ("fig17", "CPU overhead by deployment", f::fig17::run),
    ("fig18", "PPO versus DQN", f::fig18::run),
    ("fig19", "training-speedup techniques", f::fig19::run),
];

fn run(names: &[String]) -> Result<(), String> {
    if names.is_empty() {
        for (name, title, body) in FIGURES {
            println!("\n################ {name}: {title} ################");
            body()?;
        }
        println!("\nall figures regenerated; crates/bench/tests/fixtures/figures/ is the measured record");
        return Ok(());
    }
    // Resolve every name first: a typo must not surface after an hour
    // of figures.
    let mut bodies = Vec::new();
    for name in names {
        match FIGURES.iter().find(|(known, ..)| known == name) {
            Some((.., body)) => bodies.push(body),
            None => {
                let known = FIGURES.map(|(name, ..)| name).join(", ");
                return Err(format!("unknown figure {name:?} (known: {known})"));
            }
        }
    }
    bodies.into_iter().try_for_each(|body| body())
}

fn main() {
    let names: Vec<String> = std::env::args().skip(1).collect();
    if let Err(msg) = run(&names) {
        eprintln!("error: {msg}");
        std::process::exit(1);
    }
}
