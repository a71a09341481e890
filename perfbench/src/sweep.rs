//! `sweep_train`: points of the Figs. 6–8 `L_J` sweep on the MDP-kernel
//! environment. Each point trains a fresh paper-default DQN for the
//! scenario's train budget and evaluates it for its eval budget, run by
//! `RunBuilder::sweep` on one worker.

use crate::trace::{self, Layer};
use crate::traced::{TracedDefender, TracedEnv};
use crate::{digest, median, mix, time_setups, Args, Out};
use ctjam_core::defender::{Defender, DqnDefender};
use ctjam_core::env::EnvParams;
use ctjam_core::kernel::KernelEnv;
use ctjam_core::metrics::Metrics;
use ctjam_core::runner::{point_seed, RunBuilder, SweepBudget};
use ctjam_scenario::compile::apply_mode;
use ctjam_scenario::{Scenario, ScenarioKind};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

const SCENARIO: &str = "scenarios/fig06_07_08_sweeps.json";
const AXIS: &str = "L_J";
/// Scenario parse-and-compile repetitions before each point.
const SETUP_REPS: usize = 51;

/// The compiled `L_J` axis under every jammer mode of the scenario.
struct Points {
    points: Vec<EnvParams>,
    labels: Vec<String>,
    budget: SweepBudget,
}

fn compile(text: &str) -> Points {
    let scenario = Scenario::parse_str(text).expect("the sweep scenario parses");
    let ScenarioKind::Sweep(sweep) = &scenario.kind else {
        panic!("{SCENARIO} is not a sweep scenario")
    };
    let table = sweep
        .tables()
        .into_iter()
        .find(|t| t.name == AXIS)
        .expect("the sweep scenario has an L_J axis");
    let mut points = Vec::new();
    let mut labels = Vec::new();
    for mode in sweep.jammer_modes() {
        points.extend(apply_mode(&table.points, mode));
        labels.extend(table.xs.iter().map(|x| format!("L_J={x} {mode:?}")));
    }
    Points {
        points,
        labels,
        budget: sweep.budget(),
    }
}

/// One point through the library's sweep loop on one worker.
fn run_point(p: &EnvParams, budget: SweepBudget, seed: u64) -> Metrics {
    RunBuilder::new(p)
        .kernel(true)
        .budget(budget)
        .seed(seed)
        .threads(1)
        .sweep(std::slice::from_ref(p), |_, _| {})[0]
}

/// The same point re-driven through `run_in` with traced decorators:
/// the RNG discipline of `RunBuilder::sweep` → `train` → `evaluate`.
/// Returns the evaluation metrics and the skipped train steps.
fn redrive(p: &EnvParams, budget: SweepBudget, seed: u64) -> (Metrics, u64) {
    let mut rng = StdRng::seed_from_u64(point_seed(seed, 0));
    let mut defender = TracedDefender::dqn(DqnDefender::paper_default(p, &mut rng));
    defender.inner.set_training(true);
    let mut env = TracedEnv(KernelEnv::new(p.clone(), &mut rng));
    trace::span(Layer::CoreRun, 0, || {
        RunBuilder::new(p).run_in(&mut env, &mut defender, budget.train_slots, &mut rng)
    });
    defender.inner.set_training(false);
    let mut env = TracedEnv(KernelEnv::new(p.clone(), &mut rng));
    let report = trace::span(Layer::CoreRun, 1, || {
        RunBuilder::new(p).run_in(&mut env, &mut defender, budget.eval_slots, &mut rng)
    });
    let skipped = defender.probe().skipped_train_steps.unwrap_or(0) as u64;
    (report.metrics, skipped)
}

pub fn run(args: &Args, out: &mut Out) {
    let text = std::fs::read_to_string(SCENARIO).expect("the sweep scenario is readable");
    let mut setups = Vec::new();
    let compiled = time_setups(&mut setups, SETUP_REPS, || compile(&text));
    let parse = Instant::now();
    std::hint::black_box(compile(&text));
    out.metric(
        "scenario.parse_compile.ms",
        parse.elapsed().as_secs_f64() * 1e3,
        "ms",
    );

    // Two distinct points (and point seeds), alternated, so every other
    // run repeats an input and its digest must repeat.
    let n = compiled.points.len() as u64;
    let a = mix(args.seed, 1) % n;
    let b = (a + 1 + mix(args.seed, 2) % (n - 1)) % n;
    let picks = [
        (a as usize, mix(args.seed, 3)),
        (b as usize, mix(args.seed, 4)),
    ];
    let budget = compiled.budget;
    out.note(
        "sweep_points",
        picks
            .iter()
            .map(|&(i, _)| compiled.labels[i].clone())
            .collect::<Vec<_>>()
            .join(", "),
    );
    out.note("sweep_budget", format!("{budget:?}"));

    let mut rates = Vec::new();
    let mut walls = Vec::new();
    let mut reference: [Option<u64>; 2] = [None, None];
    let start = Instant::now();
    let units = if args.trace { 1 } else { usize::MAX };
    let mut untraced_s = 0.0;
    for k in 0..units {
        if k > 0 && start.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
        if k > 0 {
            time_setups(&mut setups, SETUP_REPS, || compile(&text));
        }
        let (index, seed) = picks[k % 2];
        let t = Instant::now();
        let metrics = run_point(&compiled.points[index], budget, seed);
        untraced_s = t.elapsed().as_secs_f64();
        walls.push(untraced_s * 1e3);
        rates.push(budget.train_slots as f64 / untraced_s);
        out.attempted += 1;
        let d = digest(&format!("{metrics:?}"));
        eprintln!(
            "sweep point {} seed {seed}: digest {d:016x}",
            compiled.labels[index]
        );
        match reference[k % 2] {
            None => reference[k % 2] = Some(d),
            Some(r) if r != d => {
                out.fail(format!("sweep point {index}: digest {d:016x} != {r:016x}"))
            }
            Some(_) => {}
        }
    }
    out.metric("setup_s", median(&setups), "s");
    let rate = median(&rates);
    out.metric("sweep.train_slots_per_s", rate, "1/s");
    out.metric("unit_p50_ms", median(&walls), "ms");
    out.note("units", rates.len());
    if !args.trace {
        return;
    }

    let (index, seed) = picks[0];
    let p = &compiled.points[index];
    trace::start(3 * (budget.train_slots + budget.eval_slots) + 16);
    let t = Instant::now();
    let root = trace::begin(Layer::Workload, 0);
    let (metrics, skipped) =
        trace::span(Layer::SweepPoint, index as u32, || redrive(p, budget, seed));
    trace::end(root);
    let traced_s = t.elapsed().as_secs_f64();
    let spans = trace::finish();
    let d = digest(&format!("{metrics:?}"));
    if Some(d) != reference[0] {
        out.problem(format!(
            "traced sweep point digest {d:016x} != untraced {:016x}",
            reference[0].unwrap_or(0)
        ));
    }
    let nodes = crate::finish_trace(out, args, &spans, untraced_s, traced_s);
    crate::slot_layer_metrics(out, &nodes, skipped, None);
}
