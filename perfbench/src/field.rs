//! `field_goodput`: the Fig. 10 field world (star network of the
//! scenario's peripherals and payload, every Tx/Jx duration, each with
//! the defended run and the no-jammer reference). The DQN defender is
//! trained during set-up and frozen for the timed window.

use crate::trace::{self, Layer};
use crate::traced::{TracedAdversary, TracedDefender, TracedEnv};
use crate::{digest, median, mix, Args, Out};
use ctjam_core::defender::{Defender, DqnDefender, NoDefense};
use ctjam_core::env::CompetitionEnv;
use ctjam_core::field::{FieldConfig, FieldExperiment, FieldReport};
use ctjam_core::runner::RunBuilder;
use ctjam_dqn::policy::GreedyPolicy;
use ctjam_scenario::{Field, Scenario, ScenarioKind};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

const SCENARIO: &str = "scenarios/fig10_goodput_utilization.json";
const SETUPS: usize = 3;

fn parse(text: &str) -> Field {
    match Scenario::parse_str(text)
        .expect("the field scenario parses")
        .kind
    {
        ScenarioKind::Field(f) => f,
        _ => panic!("{SCENARIO} is not a field scenario"),
    }
}

/// Set-up: parse the scenario and train the defender with its budget.
fn setup(text: &str, seed: u64) -> (Field, DqnDefender) {
    let field = parse(text);
    let env = field.config().env;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut defender = DqnDefender::paper_default(&env, &mut rng);
    RunBuilder::new(&env).train(&mut defender, field.train_slots, &mut rng);
    defender.set_training(false);
    (field, defender)
}

/// The same training re-driven through `run_in` with traced decorators
/// (`RunBuilder::train` → `run` → `CompetitionEnv::new` discipline).
fn traced_setup(text: &str, seed: u64) -> (Field, DqnDefender) {
    let field = parse(text);
    let env = field.config().env;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut defender = TracedDefender::dqn(DqnDefender::paper_default(&env, &mut rng));
    defender.inner.set_training(true);
    let adversary = Box::new(TracedAdversary(env.adversary.build(&mut rng)));
    let mut world = TracedEnv(CompetitionEnv::with_adversary(
        env.clone(),
        adversary,
        &mut rng,
    ));
    trace::span(Layer::CoreRun, 0, || {
        RunBuilder::new(&env).run_in(&mut world, &mut defender, field.train_slots, &mut rng)
    });
    defender.inner.set_training(false);
    (field, defender.inner)
}

fn experiment<D: Defender>(
    config: FieldConfig,
    defender: D,
    slots: usize,
    rng: &mut StdRng,
    id: u32,
) -> FieldReport {
    let mut exp = FieldExperiment::new(config, defender, rng);
    trace::span(Layer::FieldRun, id, || exp.run(slots, rng))
}

/// One pass over every duration (defended run, then reference), as the
/// scenario runner does. Returns the reports in order.
fn pass(field: &Field, defender: &DqnDefender, seed: u64, traced: bool) -> Vec<FieldReport> {
    let base = field.config();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut reports = Vec::new();
    for (i, &duration) in field.durations.iter().enumerate() {
        let config = FieldConfig {
            tx_slot_s: duration,
            jx_slot_s: duration,
            ..base.clone()
        };
        let reference_config = FieldConfig {
            jammer_enabled: false,
            ..config.clone()
        };
        let id = 2 * i as u32;
        let slots = field.slots;
        let report = if traced {
            let d = TracedDefender::dqn(defender.clone());
            experiment(config, d, slots, &mut rng, id)
        } else {
            experiment(config, defender.clone(), slots, &mut rng, id)
        };
        let reference = NoDefense::new(&reference_config.env, &mut rng);
        let reference = if traced {
            let d = TracedDefender::plain(reference);
            experiment(reference_config, d, slots, &mut rng, id + 1)
        } else {
            experiment(reference_config, reference, slots, &mut rng, id + 1)
        };
        reports.push(report);
        reports.push(reference);
    }
    reports
}

pub fn run(args: &Args, out: &mut Out) {
    let text = std::fs::read_to_string(SCENARIO).expect("the field scenario is readable");
    let train_seed = mix(args.seed, 1);
    let mut times = Vec::new();
    let mut trained: Option<(Field, DqnDefender)> = None;
    for _ in 0..SETUPS {
        let t = Instant::now();
        let (field, defender) = setup(&text, train_seed);
        times.push(t.elapsed().as_secs_f64());
        if let Some((_, previous)) = &trained {
            if GreedyPolicy::from_agent(previous.agent())
                != GreedyPolicy::from_agent(defender.agent())
            {
                out.problem("two set-ups with one seed trained different defenders".into());
            }
        }
        trained = Some((field, defender));
    }
    out.metric("setup_s", median(&times), "s");
    let (field, defender) = trained.expect("at least one set-up");
    let slots_per_pass = 2 * field.durations.len() * field.slots;
    out.note("field_train_slots", field.train_slots);
    out.note("field_slots_per_pass", slots_per_pass);

    // Two pass seeds, alternated: every other pass repeats one.
    let seeds = [mix(args.seed, 2), mix(args.seed, 3)];
    let mut rates = Vec::new();
    let mut walls = Vec::new();
    let mut reference: [Option<u64>; 2] = [None, None];
    let mut last_reports = Vec::new();
    let start = Instant::now();
    let mut untraced_s = 0.0;
    let mut k = 0;
    while k == 0 || (!args.trace && start.elapsed().as_secs_f64() < args.seconds) {
        let t = Instant::now();
        let reports = pass(&field, &defender, seeds[k % 2], false);
        untraced_s = t.elapsed().as_secs_f64();
        walls.push(untraced_s * 1e3);
        rates.push(slots_per_pass as f64 / untraced_s);
        out.attempted += 1;
        let d = digest(&format!("{reports:?}"));
        eprintln!("field pass {}: {:.1} ms", k % 2, untraced_s * 1e3);
        match reference[k % 2] {
            None => reference[k % 2] = Some(d),
            Some(r) if r != d => {
                out.fail(format!("field pass {}: digest {d:016x} != {r:016x}", k % 2))
            }
            Some(_) => {}
        }
        last_reports = reports;
        k += 1;
    }
    for (i, r) in reference.iter().enumerate() {
        if let Some(d) = r {
            eprintln!("field pass {i}: digest {d:016x}");
        }
    }
    let rate = median(&rates);
    out.metric("field.slots_per_s", rate, "1/s");
    out.metric("unit_p50_ms", median(&walls), "ms");
    out.note("units", rates.len());
    let n = last_reports.len().max(1) as f64;
    out.metric(
        "net.delivery_ratio",
        last_reports
            .iter()
            .map(|r| r.goodput.delivery_ratio())
            .sum::<f64>()
            / n,
        "ratio",
    );
    out.metric(
        "net.overhead_s_per_slot",
        last_reports
            .iter()
            .map(|r| r.goodput.overhead_per_slot_s())
            .sum::<f64>()
            / n,
        "s",
    );
    if !args.trace {
        return;
    }

    trace::start(5 * field.train_slots + 4 * slots_per_pass + 64);
    let root = trace::begin(Layer::Workload, 0);
    let (_, traced_defender) =
        trace::span(Layer::FieldSetup, 0, || traced_setup(&text, train_seed));
    if GreedyPolicy::from_agent(traced_defender.agent())
        != GreedyPolicy::from_agent(defender.agent())
    {
        out.problem("the traced set-up trained a different defender".into());
    }
    let pass_from = trace::begin(Layer::FieldPass, 0);
    let t = Instant::now();
    let reports = pass(&field, &defender, seeds[0], true);
    let traced_s = t.elapsed().as_secs_f64();
    trace::end(pass_from);
    trace::end(root);
    let spans = trace::finish();
    let d = digest(&format!("{reports:?}"));
    if Some(d) != reference[0] {
        out.problem(format!(
            "traced field digest {d:016x} != untraced {:016x}",
            reference[0].unwrap_or(0)
        ));
    }
    // The overhead compares the timed passes; the traced set-up has no
    // untraced twin inside this run.
    let nodes = crate::finish_trace(out, args, &spans, untraced_s, traced_s);
    let mut act = trace::Node::default();
    for s in spans[pass_from as usize..]
        .iter()
        .filter(|s| s.layer == Layer::DqnAct)
    {
        act.calls += 1;
        act.total_ns += s.duration();
        act.allocs += s.allocs;
    }
    crate::slot_layer_metrics(out, &nodes, 0, Some(act));
    let run = nodes.get(&Layer::FieldRun).copied().unwrap_or_default();
    out.metric(
        "field.net_self.ns",
        run.self_ns as f64 / slots_per_pass as f64,
        "ns",
    );
}
