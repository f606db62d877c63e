//! Figure 5 — multi-objective performance under parameter sweeps.
//!
//! Panels (a)–(d): bottleneck link utilization with the throughput
//! preference <0.8, 0.1, 0.1>, sweeping bandwidth, one-way latency,
//! random loss, and buffer size. Panels (e)–(h): latency ratio with the
//! latency preference <0.1, 0.8, 0.1> over the same sweeps. The sweep
//! values go far beyond the training ranges (Table 3), probing
//! robustness.
//!
//! Driven by the unified experiment API: each panel's parameter sweep
//! is one declarative [`ExperimentSpec`] per scheme, resolved through
//! `figure_registry` (baselines plus the cached trained MOCC/Aurora
//! models as pluggable registry schemes) and executed in parallel by
//! [`run_experiment_with`] (worker count auto-detected; override with
//! `MOCC_SWEEP_THREADS`).

use super::{figure_registry, header, row, run_flows, Scheme, HEURISTICS};
use mocc_core::{run_experiment_with, Preference, RunOptions};
use mocc_eval::{ExperimentSpec, FlowLoad, SchemeRegistry, SweepRunner, SweepSpec, TraceShape};
use mocc_netsim::Scenario;

/// The fixed operating point each sweep varies one axis away from.
fn base_spec(dur: u64) -> SweepSpec {
    SweepSpec {
        bandwidth_mbps: vec![20.0],
        owd_ms: vec![20],
        queue_pkts: vec![1000],
        loss: vec![0.0],
        shapes: vec![TraceShape::Constant],
        loads: vec![FlowLoad::Steady(1)],
        duration_s: dur,
        mss_bytes: 1500,
        seed: 7,
        // The learning agents' deployment MI convention, applied to
        // every scheme so interval boundaries are comparable.
        agent_mi: true,
    }
}

/// One sweep: a label, the printed axis values, and the spec.
fn sweeps(dur: u64) -> Vec<(&'static str, Vec<f64>, SweepSpec)> {
    let bw = vec![10.0, 20.0, 30.0, 40.0, 50.0];
    let owd = vec![10.0, 40.0, 70.0, 100.0, 130.0, 160.0, 200.0];
    let loss_pct = vec![0.0, 1.0, 2.0, 4.0, 6.0, 8.0, 10.0];
    let buf = vec![500.0, 1500.0, 2500.0, 3500.0, 5000.0];
    let mut out = Vec::new();
    let mut s = base_spec(dur);
    s.bandwidth_mbps = bw.clone();
    out.push(("bandwidth Mbps", bw, s));
    let mut s = base_spec(dur);
    s.owd_ms = owd.iter().map(|&v| v as u64).collect();
    out.push(("one-way latency ms", owd, s));
    let mut s = base_spec(dur);
    s.loss = loss_pct.iter().map(|&v| v / 100.0).collect();
    out.push(("random loss %", loss_pct, s));
    let mut s = base_spec(dur);
    s.queue_pkts = buf.iter().map(|&v| v as usize).collect();
    out.push(("buffer pkts", buf, s));
    out
}

/// The standard scheme lineup of §6.1.
fn standard_schemes(mocc_pref: Preference) -> Result<Vec<Scheme>, String> {
    let mut schemes = vec![Scheme::mocc(mocc_pref)?];
    schemes.extend(Scheme::baselines(&HEURISTICS)?);
    schemes.extend([
        Scheme::aurora("thr")?,
        Scheme::aurora("lat")?,
        Scheme::baseline("orca")?,
    ]);
    Ok(schemes)
}

fn run_panel(
    metric: &str,
    pref: Preference,
    registry: &SchemeRegistry,
    runner: SweepRunner,
    dur: u64,
) -> Result<(), String> {
    let schemes = standard_schemes(pref)?;
    for (name, values, spec) in sweeps(dur) {
        println!("\n-- sweep: {name} ({metric}) --");
        header("scheme", &values, 9);
        for label in schemes.iter().map(Scheme::label) {
            let parsed = registry.parse(&label).map_err(|e| e.to_string())?;
            let exp = ExperimentSpec::from_sweep(&label, parsed, &spec);
            let opts = RunOptions {
                registry: Some(registry),
                ..RunOptions::default()
            };
            let (report, _) =
                run_experiment_with(&runner, &exp, opts).map_err(|e| e.to_string())?;
            let vals: Vec<f64> = report
                .cells
                .iter()
                .map(|c| match metric {
                    "utilization" => c.utilization.min(1.0),
                    _ => c.latency_ratio,
                })
                .collect();
            row(&label, &vals, 9, 3);
        }
    }
    Ok(())
}

/// Prints Figure 5.
pub fn run() -> Result<(), String> {
    let dur: u64 = 30;
    // Building the registry trains/loads every cached model once, up
    // front, before the parallel sweep workers need them.
    let registry = figure_registry()?;
    let runner = SweepRunner::from_env()?;
    println!(
        "(sweeps sharded over {} worker threads; set MOCC_SWEEP_THREADS to override)",
        runner.threads()
    );

    println!("\n== Figure 5(a-d): link utilization, MOCC preference <0.8,0.1,0.1> ==");
    let thr = Preference::throughput();
    run_panel("utilization", thr, &registry, runner, dur)?;

    println!("\n== Figure 5(e-h): latency ratio, MOCC preference <0.1,0.8,0.1> ==");
    run_panel("latency", Preference::latency(), &registry, runner, dur)?;

    // Headline comparisons the paper calls out in §6.1.
    println!("\n== headline checks ==");
    let latency_ratio = |scheme: Scheme| {
        let sc = Scenario::single(20e6, 20, 1000, 0.0, 30);
        let initial = 0.3 * sc.link.trace.max_rate();
        run_flows(vec![scheme.make(initial)], sc)[0].latency_ratio
    };
    println!(
        "latency ratio: mocc-lat {:.3} vs bbr {:.3} vs cubic {:.3} (paper: MOCC up to 18.8% below BBR, ~15% below CUBIC)",
        latency_ratio(Scheme::mocc(Preference::latency())?),
        latency_ratio(Scheme::baseline("bbr")?),
        latency_ratio(Scheme::baseline("cubic")?)
    );
    Ok(())
}
