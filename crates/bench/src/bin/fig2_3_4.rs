//! Regenerates **Figures 2–4** of the paper: the iteration-by-
//! iteration abstract reachability graphs (`G1`, `G3`, `G5`) and
//! their bisimulation-minimized context ACFAs (`A1`, `A3`, `A5`)
//! produced while CIRC runs on the Figure 1 example.
//!
//! ```text
//! cargo run --release -p circ-bench --bin fig2_3_4
//! ```

use circ_core::{circ, display_acfa, CircConfig, CircEvent, CircOutcome};
use circ_ir::{figure1_cfa, MtProgram};

fn main() {
    let cfa = figure1_cfa();
    let x = cfa.var_by_name("x").unwrap();
    let program = MtProgram::new(cfa.clone(), x);
    let outcome = circ(&program, &CircConfig::default());

    let mut outer = 0usize;
    let mut round_preds: &[String] = &[];
    let mut reach_in_outer = 0usize;
    for e in &outcome.log().events {
        match e {
            CircEvent::OuterStart { preds, k } => {
                outer += 1;
                round_preds = preds;
                reach_in_outer = 0;
                println!("================================================================");
                println!("Iteration {outer}:  P = {{{}}},  k = {k}", preds.join(", "));
                println!("================================================================");
            }
            CircEvent::ReachDone { arg, arg_locs } => {
                reach_in_outer += 1;
                println!(
                    "\n--- ARG G (outer {outer}, inner round {reach_in_outer}; {arg_locs} locations) ---"
                );
                println!("{}", display_acfa(arg, round_preds, &cfa));
            }
            CircEvent::SimChecked { holds } => {
                println!(
                    "guarantee check G ⪯ A: {}",
                    if *holds {
                        "HOLDS — context model is sound"
                    } else {
                        "fails — weaken the context"
                    }
                );
            }
            CircEvent::Collapsed { acfa, size } => {
                println!("\n--- Collapse: minimized ACFA A ({size} locations) ---");
                println!("{}", display_acfa(acfa, round_preds, &cfa));
            }
            CircEvent::AbstractRace { trace_len } => {
                println!("\n!! abstract race reached ({trace_len}-step abstract trace)");
            }
            CircEvent::Refined { verdict, .. } => {
                println!("   Refine: {verdict}");
            }
            CircEvent::OmegaCheck { good } => {
                println!("   ω-goodness check: {good}");
            }
        }
    }
    match outcome {
        CircOutcome::Safe(r) => println!(
            "\nFinal verdict: SAFE with {} predicates, ACFA of {} locations, k = {}.",
            r.preds.len(),
            r.acfa.num_locs(),
            r.k
        ),
        other => {
            eprintln!("unexpected outcome: {other:?}");
            std::process::exit(1);
        }
    }
}
