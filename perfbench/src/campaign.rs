//! `campaign_zoo`: a generated campaign in the shape of
//! `scenarios/zoo_campaign.json` (all its adversaries and policies, the
//! concrete environment, its uniform fault plan) scaled up in seeds and
//! slots, run by `run_campaign` on one fleet worker with a checkpoint
//! path and rendered to HTML.

use crate::trace::{self, Layer};
use crate::traced::{TracedAdversary, TracedDefender, TracedEnv};
use crate::{digest, median, mix, time_setups, Args, Out};
use ctjam_core::defender::{Defender, NoDefense, PassiveFh, RandomFh, WithDecoys};
use ctjam_core::env::{CompetitionEnv, EnvParams};
use ctjam_core::runner::{EpisodeReport, RunBuilder};
use ctjam_fault::FaultPlan;
use ctjam_fleet::{CampaignPolicy, CampaignProgress, CampaignSpec, EpisodeOutcome, Fleet};
use ctjam_scenario::run::{run_campaign, CampaignOptions, CampaignPolicyRun, ScenarioProgress};
use ctjam_scenario::{Campaign, Report, Scenario, ScenarioKind};
use ctjam_telemetry::ShardSink;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::Path;
use std::time::Instant;

const TEMPLATE: &str = "scenarios/zoo_campaign.json";
/// Timed campaign: 7 adversaries × 4 policies × 8 seeds × 100 000 slots
/// = 22.4 M slots.
const SEEDS: usize = 8;
const SLOTS: usize = 100_000;
/// Traced campaign (every slot leaves about five spans in memory).
const TRACE_SEEDS: usize = 2;
const TRACE_SLOTS: usize = 2_000;
/// Scenario parse-and-compile repetitions before each campaign run.
const SETUP_REPS: usize = 51;

struct Compiled {
    name: String,
    campaign: Campaign,
    fingerprint: u64,
    specs: Vec<(String, CampaignSpec)>,
}

fn template() -> Campaign {
    let text = std::fs::read_to_string(TEMPLATE).expect("the zoo campaign is readable");
    match Scenario::parse_str(&text)
        .expect("the zoo campaign parses")
        .kind
    {
        ScenarioKind::Campaign(c) => c,
        _ => panic!("{TEMPLATE} is not a campaign"),
    }
}

/// The scenario text of one generated campaign. Seeds stay below 2^53
/// so the JSON numbers are exact.
fn scenario_text(t: &Campaign, seed: u64, seeds: usize, slots: usize) -> String {
    let quote = |v: &[String]| {
        v.iter()
            .map(|s| format!("{s:?}"))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let replicates = (0..seeds as u64)
        .map(|i| (mix(seed, 100 + i) >> 11).to_string())
        .collect::<Vec<_>>()
        .join(", ");
    let env = t
        .env
        .iter()
        .map(|(k, v)| format!("{k:?}: {v}"))
        .collect::<Vec<_>>()
        .join(", ");
    let faults = t.faults.as_ref().expect("the zoo campaign injects faults");
    let rates = faults
        .rates
        .iter()
        .map(|(k, v)| format!("{k:?}: {v}"))
        .collect::<Vec<_>>()
        .join(", ");
    format!(
        r#"{{
  "schema": "ctjam-scenario/v1",
  "name": "bench_zoo_campaign",
  "kind": "campaign",
  "base_seed": {base},
  "slots": {slots},
  "kernel": {kernel},
  "seeds": [{replicates}],
  "adversaries": [{adversaries}],
  "policies": [{policies}],
  "env": {{ {env} }},
  "faults": {{ "seed": {fault_seed}, "rates": {{ {rates} }} }}
}}"#,
        base = mix(seed, 10) >> 11,
        kernel = t.kernel,
        adversaries = quote(&t.adversaries),
        policies = quote(&t.policies),
        fault_seed = mix(seed, 11) >> 11,
    )
}

fn compile(text: &str) -> Compiled {
    let scenario = Scenario::parse_str(text).expect("the generated campaign parses");
    let fingerprint = scenario.fingerprint(false);
    let ScenarioKind::Campaign(campaign) = scenario.kind else {
        panic!("the generated scenario is not a campaign")
    };
    let specs = campaign.specs(&scenario.name);
    Compiled {
        name: scenario.name,
        campaign,
        fingerprint,
        specs,
    }
}

/// The HTML report: adversary × policy success-rate table plus one
/// reward histogram per policy.
fn render(campaign: &Campaign, runs: &[CampaignPolicyRun]) -> String {
    let seeds = campaign.seeds.len().max(1);
    let cells: Vec<Vec<String>> = (0..campaign.adversaries.len())
        .map(|a| {
            runs.iter()
                .map(|run| {
                    let gv = run.result.goodput_vector();
                    let block = &gv[a * seeds..(a + 1) * seeds];
                    format!(
                        "{:.1}%",
                        100.0 * block.iter().sum::<f64>() / block.len() as f64
                    )
                })
                .collect()
        })
        .collect();
    let mut report = Report::new("CTJam benchmark campaign");
    report.section("bench_zoo_campaign").paragraph(&format!(
        "{} adversaries x {} policies, {seeds} seed(s) per cell, {} slots per episode.",
        campaign.adversaries.len(),
        runs.len(),
        campaign.slots
    ));
    report.matrix(
        "adversary \\ policy",
        &runs.iter().map(|r| r.policy.clone()).collect::<Vec<_>>(),
        &campaign.adversaries,
        &cells,
    );
    for run in runs {
        report.histogram(
            &format!("Reward distribution — {}", run.policy),
            &run.result.telemetry.reward_hist,
        );
    }
    report.to_html()
}

/// Digest of one policy's simulated outputs: outcomes plus telemetry.
fn policy_text(policy: &str, outcomes: &[EpisodeOutcome], telemetry: &ShardSink) -> String {
    format!(
        "{policy}|{outcomes:?}|{}\n",
        telemetry.to_json().to_string_compact()
    )
}

/// One whole campaign through the library: fleet, checkpoint, report.
/// Returns the output digest.
fn run_unit(c: &Compiled, dir: &Path) -> u64 {
    let ckpt = dir.join("campaign.progress.ckpt");
    let _ = std::fs::remove_file(&ckpt);
    let options = CampaignOptions {
        threads: Some(1),
        checkpoint: Some(ckpt),
        resume: false,
    };
    let runs = run_campaign(&c.name, &c.campaign, c.fingerprint, &options)
        .expect("the generated campaign runs");
    std::fs::write(dir.join("campaign.html"), render(&c.campaign, &runs))
        .expect("the report is writable");
    let text: String = runs
        .iter()
        .map(|r| policy_text(&r.policy, &r.result.outcomes, &r.result.telemetry))
        .collect();
    digest(&text)
}

/// Drives one concrete-environment episode through `run_in`, exactly as
/// the fleet's `evaluate` does (`CompetitionEnv::new` = build the
/// adversary, then draw the start channel), optionally behind traced
/// decorators.
fn drive<D: Defender>(
    point: &EnvParams,
    defender: D,
    slots: usize,
    rng: &mut StdRng,
    sink: &mut ShardSink,
    plan: &mut FaultPlan,
    traced: bool,
) -> EpisodeReport {
    let adversary = point.adversary.build(rng);
    let builder = RunBuilder::new(point).sink(sink).fault_plan(plan);
    if traced {
        let traced_adversary = Box::new(TracedAdversary(adversary));
        let mut env = TracedEnv(CompetitionEnv::with_adversary(
            point.clone(),
            traced_adversary,
            rng,
        ));
        let mut defender = TracedDefender::plain(defender);
        trace::span(Layer::CoreRun, 0, || {
            builder.run_in(&mut env, &mut defender, slots, rng)
        })
    } else {
        let mut env = CompetitionEnv::with_adversary(point.clone(), adversary, rng);
        let mut defender = defender;
        builder.run_in(&mut env, &mut defender, slots, rng)
    }
}

/// Episode `e` of `spec`, re-driven with the fleet engine's RNG and
/// fault-plan discipline.
fn episode(spec: &CampaignSpec, e: u64, sink: &mut ShardSink, traced: bool) -> EpisodeOutcome {
    let seed = spec.episode_seed(e as usize);
    let mut rng = StdRng::seed_from_u64(seed);
    let point = spec.episode_point(e as usize);
    let faults = spec.faults.expect("the benchmark campaign injects faults");
    let mut plan = FaultPlan::new(spec.plan_seed(&faults, e as usize), faults.rates);
    let slots = spec.slots;
    let r = &mut rng;
    let report = match &spec.policy {
        CampaignPolicy::NoDefense => {
            let d = NoDefense::new(point, r);
            drive(point, d, slots, r, sink, &mut plan, traced)
        }
        CampaignPolicy::PassiveFh => {
            let d = PassiveFh::new(point, r);
            drive(point, d, slots, r, sink, &mut plan, traced)
        }
        CampaignPolicy::RandomFh => {
            let d = RandomFh::new(point, r);
            drive(point, d, slots, r, sink, &mut plan, traced)
        }
        CampaignPolicy::DecoyRandomFh(rate) => {
            let d = WithDecoys::new(RandomFh::new(point, r), *rate, point);
            drive(point, d, slots, r, sink, &mut plan, traced)
        }
        other => panic!("the benchmark campaign runs no {other:?} policy"),
    };
    EpisodeOutcome {
        episode: e,
        seed,
        metrics: report.metrics,
        total_reward: report.total_reward,
        health: report.health,
    }
}

/// Every episode of `spec` in grid order, each in its own span.
fn redrive(spec: &CampaignSpec, layer: Layer, traced: bool) -> (Vec<EpisodeOutcome>, ShardSink) {
    let mut sink = ShardSink::new();
    let outcomes = (0..spec.episodes() as u64)
        .map(|e| trace::span(layer, e as u32, || episode(spec, e, &mut sink, traced)))
        .collect();
    let mut telemetry = ShardSink::new();
    telemetry.merge(&sink);
    (outcomes, telemetry)
}

pub fn run(args: &Args, out: &mut Out) {
    let t = template();
    let dir = args.out_dir.join("campaign");
    std::fs::create_dir_all(&dir).expect("the campaign output directory is creatable");
    // Two generated campaigns, alternated: every other run repeats one.
    let texts = [
        scenario_text(&t, mix(args.seed, 1), SEEDS, SLOTS),
        scenario_text(&t, mix(args.seed, 2), SEEDS, SLOTS),
    ];
    let mut setups = Vec::new();
    time_setups(&mut setups, SETUP_REPS, || compile(&texts[0]));
    let compiled = [compile(&texts[0]), compile(&texts[1])];
    let slots_per_unit =
        (compiled[0].specs.len() * compiled[0].campaign.adversaries.len()) * SEEDS * SLOTS;
    out.note("campaign_slots_per_run", slots_per_unit);
    out.note(
        "campaign_fingerprints",
        format!(
            "{:016x} {:016x}",
            compiled[0].fingerprint, compiled[1].fingerprint
        ),
    );

    if !args.trace {
        let mut rates = Vec::new();
        let mut walls = Vec::new();
        let mut reference: [Option<u64>; 2] = [None, None];
        let start = Instant::now();
        let mut k = 0;
        while k == 0 || start.elapsed().as_secs_f64() < args.seconds {
            time_setups(&mut setups, SETUP_REPS, || compile(&texts[k % 2]));
            let unit = Instant::now();
            let d = run_unit(&compiled[k % 2], &dir);
            let wall = unit.elapsed().as_secs_f64();
            walls.push(wall * 1e3);
            rates.push(slots_per_unit as f64 / wall);
            out.attempted += 1;
            eprintln!(
                "campaign {}: digest {d:016x} wall {:.1} ms",
                k % 2,
                wall * 1e3
            );
            match reference[k % 2] {
                None => reference[k % 2] = Some(d),
                Some(r) if r != d => {
                    out.fail(format!("campaign {}: digest {d:016x} != {r:016x}", k % 2))
                }
                Some(_) => {}
            }
            k += 1;
        }
        out.metric("setup_s", median(&setups), "s");
        let rate = median(&rates);
        out.metric("campaign.slots_per_s", rate, "1/s");
        out.metric("unit_p50_ms", median(&walls), "ms");
        out.note("units", rates.len());
        return;
    }

    // Traced run. One full-size campaign untraced for the slot rate,
    // then a smaller one: the library run first (untraced), then the
    // same campaign with every layer boundary timed and every episode
    // re-driven through the decorators.
    let unit = Instant::now();
    run_unit(&compiled[0], &dir);
    out.attempted += 1;
    let rate = slots_per_unit as f64 / unit.elapsed().as_secs_f64();
    out.metric("campaign.slots_per_s", rate, "1/s");
    let text = scenario_text(&t, mix(args.seed, 1), TRACE_SEEDS, TRACE_SLOTS);
    let small = compile(&text);
    let small_slots =
        small.specs.len() * small.campaign.adversaries.len() * TRACE_SEEDS * TRACE_SLOTS;
    let unit = Instant::now();
    let untraced = run_unit(&small, &dir);
    let untraced_s = unit.elapsed().as_secs_f64();
    out.attempted += 1;
    out.note("traced_campaign_slots", small_slots);

    let ckpt = dir.join("campaign-traced.progress.ckpt");
    let _ = std::fs::remove_file(&ckpt);
    trace::start(6 * small_slots + 4096);
    let t0 = Instant::now();
    let root = trace::begin(Layer::Workload, 0);
    let c = trace::span(Layer::ScenarioParseCompile, 0, || compile(&text));
    let mut progress = ScenarioProgress {
        fingerprint: c.fingerprint,
        entries: Vec::new(),
    };
    let mut runs = Vec::new();
    let mut traced_text = String::new();
    let mut faults_fired = 0;
    let mut fleet_ns = 0.0;
    let mut plain_ns = 0.0;
    for (i, (policy, spec)) in c.specs.iter().enumerate() {
        let t = Instant::now();
        let result = trace::span(Layer::FleetRun, i as u32, || {
            Fleet::new().threads(1).run(spec)
        });
        fleet_ns += t.elapsed().as_nanos() as f64;
        let t = Instant::now();
        let (plain, _) = trace::span(Layer::FleetPlain, i as u32, || {
            redrive(spec, Layer::FleetEpisodePlain, false)
        });
        plain_ns += t.elapsed().as_nanos() as f64;
        let (outcomes, telemetry) = trace::span(Layer::FleetRedrive, i as u32, || {
            redrive(spec, Layer::FleetEpisode, true)
        });
        if plain != result.outcomes || outcomes != result.outcomes {
            out.problem(format!(
                "{policy}: re-driven episodes differ from Fleet::run"
            ));
        }
        traced_text.push_str(&policy_text(policy, &outcomes, &telemetry));
        faults_fired += result.health.faults_fired;
        progress.entries.push((
            i as u64,
            CampaignProgress {
                fingerprint: spec.fingerprint(),
                outcomes,
                telemetry,
            },
        ));
        trace::span(Layer::FleetCheckpointSave, i as u32, || {
            progress.save(&ckpt)
        })
        .expect("the checkpoint is writable");
        runs.push(CampaignPolicyRun {
            policy: policy.clone(),
            spec: spec.clone(),
            result,
        });
    }
    let html = trace::span(Layer::ScenarioReport, 0, || {
        let html = render(&c.campaign, &runs);
        std::fs::write(dir.join("campaign-traced.html"), &html).expect("the report is writable");
        html
    });
    trace::end(root);
    let traced_s = t0.elapsed().as_secs_f64();
    let spans = trace::finish();
    let traced = digest(&traced_text);
    if traced != untraced {
        out.problem(format!(
            "traced campaign digest {traced:016x} != untraced {untraced:016x}"
        ));
    }

    let nodes = crate::finish_trace(out, args, &spans, untraced_s, traced_s);
    crate::slot_layer_metrics(out, &nodes, 0, None);
    let node = |l: Layer| nodes.get(&l).copied().unwrap_or_default();
    out.metric("core.faults_fired", faults_fired as f64, "count");
    out.metric(
        "fleet.self_share",
        ((fleet_ns - plain_ns) / fleet_ns).clamp(0.0, 1.0),
        "share",
    );
    let save = node(Layer::FleetCheckpointSave);
    out.metric(
        "fleet.checkpoint_save.ms",
        save.total_ns as f64 / save.calls.max(1) as f64 / 1e6,
        "ms",
    );
    let bytes = std::fs::metadata(&ckpt).map_or(0, |m| m.len());
    out.metric("fleet.checkpoint.bytes", bytes as f64, "bytes");
    out.metric(
        "scenario.parse_compile.ms",
        node(Layer::ScenarioParseCompile).total_ns as f64 / 1e6,
        "ms",
    );
    out.metric(
        "scenario.report.ms",
        node(Layer::ScenarioReport).total_ns as f64 / 1e6,
        "ms",
    );
    out.metric("scenario.report.bytes", html.len() as f64, "bytes");
}
