//! Decorators over the public `Environment`, `Adversary` and `Defender`
//! traits. Each forwards every trait method to the wrapped value —
//! same arguments, same RNG — and records a span around the calls that
//! do work, so a traced run draws exactly the random numbers the plain
//! run draws and must reproduce its outputs bit for bit.

use crate::trace::{self, Layer};
use ctjam_core::adversary::{Adversary, AdversaryProbe, JamAction, SlotSense};
use ctjam_core::defender::{AgentProbe, Defender, DqnDefender};
use ctjam_core::env::{Decision, EnvParams, Environment, SlotResult};
use ctjam_fault::FaultPoint;
use rand::RngCore;

/// Traces `step` / `step_with_decoy` as `core.env_step`.
pub struct TracedEnv<E>(pub E);

impl<E: Environment> Environment for TracedEnv<E> {
    fn params(&self) -> &EnvParams {
        self.0.params()
    }

    fn current_channel(&self) -> usize {
        self.0.current_channel()
    }

    fn step(&mut self, decision: Decision, rng: &mut dyn RngCore) -> SlotResult {
        trace::span(Layer::CoreEnvStep, 0, || self.0.step(decision, rng))
    }

    fn step_with_decoy(
        &mut self,
        decision: Decision,
        decoy: Option<usize>,
        rng: &mut dyn RngCore,
    ) -> SlotResult {
        trace::span(Layer::CoreEnvStep, 0, || {
            self.0.step_with_decoy(decision, decoy, rng)
        })
    }
}

/// Traces `jam` as `core.adversary_jam`.
#[derive(Debug)]
pub struct TracedAdversary(pub Box<dyn Adversary>);

impl Adversary for TracedAdversary {
    fn name(&self) -> &str {
        self.0.name()
    }

    fn jam(&mut self, sense: &SlotSense, rng: &mut dyn RngCore) -> JamAction {
        trace::span(Layer::CoreAdversaryJam, 0, || self.0.jam(sense, rng))
    }

    fn clone_box(&self) -> Box<dyn Adversary> {
        Box::new(TracedAdversary(self.0.clone_box()))
    }

    fn probe(&self) -> AdversaryProbe {
        self.0.probe()
    }

    fn set_learning(&mut self, on: bool) {
        self.0.set_learning(on);
    }
}

/// Traces `decide`/`decoy` and `feedback`. For a DQN defender the
/// decision is `dqn.act`, and a feedback call is `dqn.train_step` when
/// the agent's train-step count advanced across it, `dqn.observe`
/// otherwise. Other defenders use `core.decide` and `core.feedback`.
pub struct TracedDefender<D> {
    pub inner: D,
    train_steps: fn(&D) -> Option<usize>,
}

impl TracedDefender<DqnDefender> {
    pub fn dqn(inner: DqnDefender) -> Self {
        TracedDefender {
            inner,
            train_steps: |d| Some(d.agent().train_steps()),
        }
    }
}

impl<D: Defender> TracedDefender<D> {
    pub fn plain(inner: D) -> Self {
        TracedDefender {
            inner,
            train_steps: |_| None,
        }
    }

    fn decide_layer(&self) -> Layer {
        if (self.train_steps)(&self.inner).is_some() {
            Layer::DqnAct
        } else {
            Layer::CoreDecide
        }
    }

    fn traced_feedback(&mut self, call: impl FnOnce(&mut D)) {
        let before = (self.train_steps)(&self.inner);
        let index = trace::begin(Layer::CoreFeedback, 0);
        call(&mut self.inner);
        let layer = match (before, (self.train_steps)(&self.inner)) {
            (Some(a), Some(b)) if b > a => Layer::DqnTrainStep,
            (Some(_), _) => Layer::DqnObserve,
            (None, _) => Layer::CoreFeedback,
        };
        trace::end_as(index, Some(layer));
    }
}

impl<D: Defender> Defender for TracedDefender<D> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn decide(&mut self, rng: &mut dyn RngCore) -> Decision {
        let layer = self.decide_layer();
        trace::span(layer, 0, || self.inner.decide(rng))
    }

    /// A decoy draw is part of the decision: `core.decide` for plain
    /// defenders. The DQN defender sends no decoys, so its `dqn.act`
    /// count stays one per slot.
    fn decoy(&mut self, rng: &mut dyn RngCore) -> Option<usize> {
        match self.decide_layer() {
            Layer::DqnAct => self.inner.decoy(rng),
            layer => trace::span(layer, 0, || self.inner.decoy(rng)),
        }
    }

    fn feedback(&mut self, result: &SlotResult, rng: &mut dyn RngCore) {
        self.traced_feedback(|d| d.feedback(result, rng));
    }

    fn feedback_with_fault(
        &mut self,
        result: &SlotResult,
        rng: &mut dyn RngCore,
        fault: &mut dyn FaultPoint,
    ) {
        self.traced_feedback(|d| d.feedback_with_fault(result, rng, fault));
    }

    fn probe(&self) -> AgentProbe {
        self.inner.probe()
    }
}
