//! Figures 11–15 — fairness and friendliness (§6.4).
//!
//! Fig. 11: three same-scheme flows staggered on a 12 Mbps dumbbell —
//!          per-epoch throughput shares.
//! Fig. 12: per-second Jain-index CDF per scheme (plus MOCC variants).
//! Fig. 13: pairwise competitions of MOCC variants (larger w_thr wins
//!          more bandwidth) and CUBIC vs Vegas for contrast.
//! Fig. 14: MOCC-vs-MOCC throughput ratio across RTTs for 6 weights.
//! Fig. 15: friendliness ratio (scheme / CUBIC) across RTTs.

use super::{header, mean_over, percentile_row, row, run_flows, Scheme};
use mocc_core::Preference;
use mocc_netsim::metrics::{per_second_jain, percentile};
use mocc_netsim::{FlowResult, Scenario};

/// One flow per scheme on `sc`, each starting at 20 % of the link rate.
fn compete(schemes: &[Scheme], sc: Scenario) -> Vec<FlowResult> {
    let initial = 0.2 * sc.link.trace.max_rate();
    run_flows(schemes.iter().map(|s| s.make(initial)).collect(), sc)
}

/// Prints Figures 11 to 15.
pub fn run() -> Result<(), String> {
    let (stagger, dur, duel_s) = (40.0, 160, 30);
    let (thr, balance, latency) = (
        Scheme::mocc(Preference::throughput())?,
        Scheme::mocc(Preference::balanced())?,
        Scheme::mocc(Preference::latency())?,
    );
    let (cubic, vegas) = (Scheme::baseline("cubic")?, Scheme::baseline("vegas")?);

    let fairness_schemes = [
        ("mocc", thr),
        ("cubic", cubic),
        ("vegas", vegas),
        ("bbr", Scheme::baseline("bbr")?),
        ("copa", Scheme::baseline("copa")?),
        ("pcc-vivace", Scheme::baseline("pcc-vivace")?),
        ("pcc-allegro", Scheme::baseline("pcc-allegro")?),
        ("aurora", Scheme::aurora("thr")?),
        ("orca", Scheme::baseline("orca")?),
    ];

    println!("== Figure 11: 3 staggered same-scheme flows on 12 Mbps/20 ms RTT/1xBDP ==");
    println!("(mean Mbps of flows 1-3 during the final epoch, when all three share)");
    header("scheme", &["flow1", "flow2", "flow3", "jain"], 9);
    // 1×BDP buffer: 12 Mbps × 20 ms / 12000 bits = 20 pkts — use a
    // small multiple to keep heuristics functional.
    let staggered = || Scenario::dumbbell(12e6, 10, 40, 3, stagger, dur);
    let mut jain_sets: Vec<(&str, Vec<f64>)> = Vec::new();
    for (name, scheme) in fairness_schemes {
        let flows = compete(&[scheme; 3], staggered());
        let mut cells: Vec<f64> = flows
            .iter()
            .map(|f| mean_over(&f.per_sec_mbits, (2.0 * stagger) as usize, dur as usize))
            .collect();
        let jain = per_second_jain(&flows);
        cells.push(percentile(&jain, 50.0));
        row(name, &cells, 9, 2);
        jain_sets.push((name, jain));
    }

    println!("\n== Figure 12: per-second Jain index CDF ==");
    // Add the MOCC weight variants the paper includes.
    for (tag, scheme) in [("mocc-balance", balance), ("mocc-latency", latency)] {
        let flows = compete(&[scheme; 3], staggered());
        jain_sets.push((tag, per_second_jain(&flows)));
    }
    header("scheme", &["p10", "p25", "p50", "p75", "p90"], 8);
    for (name, jain) in &jain_sets {
        percentile_row(name, jain, &[10.0, 25.0, 50.0, 75.0, 90.0], &[], 8, 3);
    }

    // Delivered bps of `a` and `b` sharing a 20 Mbps dumbbell of the
    // given RTT (Figs. 13-15).
    let duel = |a: Scheme, b: Scheme, rtt_ms: u64| {
        let sc = Scenario::dumbbell(20e6, rtt_ms / 2, 66, 2, 0.0, duel_s);
        let flows = compete(&[a, b], sc);
        (flows[0].throughput_bps, flows[1].throughput_bps)
    };

    println!("\n== Figure 13: pairwise MOCC-variant competitions (20 Mbps/20 ms) ==");
    let pairs = [
        ("mocc-thr", thr, "mocc-balance", balance),
        ("mocc-thr", thr, "mocc-latency", latency),
        ("mocc-latency", latency, "mocc-balance", balance),
        ("cubic", cubic, "vegas", vegas),
    ];
    header("pair", &["A Mbps", "B Mbps", "A/B"], 10);
    for (na, a, nb, b) in pairs {
        let (ta, tb) = duel(a, b, 20);
        let (ta, tb) = (ta / 1e6, tb / 1e6);
        let label = format!("{na} vs {nb}");
        row(&label, &[ta, tb, ta / tb.max(1e-9)], 10, 2);
    }
    println!("(paper: larger w_thr is more aggressive; no variant starves the other)");

    println!("\n== Figure 14: MOCC-vs-MOCC throughput ratio across RTT (20 Mbps) ==");
    let weights = [
        ("w2<.6,.3,.1>", Preference::new(0.6, 0.3, 0.1)),
        ("w3<.5,.3,.2>", Preference::new(0.5, 0.3, 0.2)),
        ("w4<.2,.4,.4>", Preference::new(0.2, 0.4, 0.4)),
        ("w5<.1,.8,.1>", Preference::new(0.1, 0.8, 0.1)),
        ("w6<.1,.1,.8>", Preference::new(0.1, 0.1, 0.8)),
    ];
    let w1 = Scheme::mocc(Preference::new(0.8, 0.1, 0.1))?;
    let rtts = [10u64, 30, 50, 70, 90];
    let ms = |rtts: &[u64]| rtts.iter().map(|r| format!("{r}ms")).collect::<Vec<_>>();
    header("weights (vs w1)", &ms(&rtts), 8);
    let mut ratios: Vec<f64> = Vec::new();
    for (name, w) in weights {
        let scheme = Scheme::mocc(w)?;
        let vals: Vec<f64> = rtts
            .iter()
            .map(|&rtt| {
                let (t1, tw) = duel(w1, scheme, rtt);
                tw / t1.max(1.0)
            })
            .collect();
        row(name, &vals, 8, 2);
        ratios.extend(vals);
    }
    let (lo, hi) = (
        ratios.iter().cloned().fold(f64::MAX, f64::min),
        ratios.iter().cloned().fold(f64::MIN, f64::max),
    );
    println!("ratio range: {lo:.2}-{hi:.2} (paper: 0.43-2.04 — no starvation)");

    println!("\n== Figure 15: friendliness ratio vs one CUBIC flow across RTT ==");
    let rtts15 = [20u64, 40, 60, 80, 100, 120];
    let friend_schemes = [
        ("mocc-thr", thr),
        ("mocc-balance", balance),
        ("mocc-latency", latency),
        ("cubic", cubic),
        ("vegas", vegas),
        ("bbr", Scheme::baseline("bbr")?),
        ("copa", Scheme::baseline("copa")?),
        ("pcc-vivace", Scheme::baseline("pcc-vivace")?),
        ("aurora", Scheme::aurora("thr")?),
    ];
    header("scheme / cubic", &ms(&rtts15), 8);
    for (name, scheme) in friend_schemes {
        let vals: Vec<f64> = rtts15
            .iter()
            .map(|&rtt| {
                let (ts, tc) = duel(scheme, cubic, rtt);
                ts / tc.max(1.0)
            })
            .collect();
        row(name, &vals, 8, 2);
    }
    println!("(paper: MOCC-thr more aggressive, MOCC-balance/latency friendly, all comparable to other schemes)");
    Ok(())
}
