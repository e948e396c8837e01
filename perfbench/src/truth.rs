//! Confirms racy answers on the concrete interpreter.
//!
//! A breadth-first search over two threads (then three) finds a
//! shortest schedule into a race state; the schedule is then replayed
//! step by step from the initial state (`circ_triage::replay_witness`,
//! which checks every step is enabled), and the final state must
//! satisfy `Interp::race`. An input whose race cannot be confirmed this
//! way is a generator bug: set-up fails rather than dropping the input.

use circ_ir::{ConcreteState, Interp, MtProgram, Op, SchedChoice};
use circ_triage::{replay_witness, TriageWitness};
use std::collections::{HashMap, VecDeque};

/// Values tried for `nondet()` on assignment edges.
const NONDET_VALUES: [i64; 3] = [0, 1, 2];
/// States explored per thread count before giving up.
const MAX_STATES: usize = 200_000;

/// Finds and replays a race schedule.
pub fn confirm_race(program: &MtProgram) -> Result<(), String> {
    for n_threads in [2, 3] {
        let interp = Interp::new(program.clone(), n_threads);
        if let Some(diag) = interp.malformed() {
            return Err(format!("interpreter rejects the program: {diag}"));
        }
        if let Some(schedule) = search(&interp) {
            let steps = schedule.iter().map(|c| (c.thread, c.edge, c.nondet)).collect();
            let witness = TriageWitness { n_threads, seed: 0, steps };
            return replay_witness(program, &witness).map(|_| ());
        }
    }
    Err(format!("no race within {MAX_STATES} states at 2 or 3 threads"))
}

fn search(interp: &Interp) -> Option<Vec<SchedChoice>> {
    let cfa = interp.program().cfa();
    let init = interp.initial();
    let mut parent: HashMap<ConcreteState, Option<(ConcreteState, SchedChoice)>> = HashMap::new();
    let mut queue = VecDeque::new();
    parent.insert(init.clone(), None);
    queue.push_back(init);
    while let Some(s) = queue.pop_front() {
        if interp.race(&s).is_some() {
            let mut schedule = Vec::new();
            let mut cur = s;
            while let Some(Some((prev, choice))) = parent.get(&cur) {
                schedule.push(*choice);
                cur = prev.clone();
            }
            schedule.reverse();
            return Some(schedule);
        }
        if parent.len() >= MAX_STATES {
            continue;
        }
        for (thread, edge) in interp.enabled(&s) {
            let nondets: &[i64] = match &cfa.edge(edge).op {
                Op::Assign(_, e) if e.has_nondet() => &NONDET_VALUES,
                _ => &[0],
            };
            for &nondet in nondets {
                let choice = SchedChoice { thread, edge, nondet };
                let next = interp.step(&s, choice);
                if !parent.contains_key(&next) {
                    parent.insert(next.clone(), Some((s.clone(), choice)));
                    queue.push_back(next);
                }
            }
        }
    }
    None
}
