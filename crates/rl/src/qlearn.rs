//! NN-backed Q-learning — the learner of §3.2.2.
//!
//! The network maps an encoded state to one Q-value per action
//! ("the output layer has one neuron per action/configuration available
//! in the system"). Updates follow the standard Q-learning target
//! `r + discount · max_a′ Q(s′, a′)`, computed against a periodically
//! synchronised target network, with gradients flowing only through the
//! taken action's output — the "difference between the reward predicted
//! by the NN and the actual value found via hardware performance
//! counters" minimised by gradient descent.

use crate::nn::{Activation, Mlp, Optimizer};
use crate::replay::{Experience, ReplayBuffer};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Agent hyperparameters.
#[derive(Clone, Debug)]
pub struct QConfig {
    /// Encoded state dimension.
    pub state_dim: usize,
    /// Number of actions (hardware configurations).
    pub num_actions: usize,
    /// Hidden layer widths.
    pub hidden: Vec<usize>,
    /// Q-learning future-reward discount.
    pub discount: f64,
    /// Optimiser.
    pub optimizer: Optimizer,
    /// Initial exploration rate.
    pub epsilon_start: f64,
    /// Final exploration rate.
    pub epsilon_end: f64,
    /// Steps over which ε anneals linearly.
    pub epsilon_decay_steps: u64,
    /// Replay capacity.
    pub replay_capacity: usize,
    /// Minibatch size per learning step.
    pub batch_size: usize,
    /// Sync the target network every this many observations.
    pub target_sync: u64,
    /// Learning starts once the buffer holds this many transitions.
    pub warmup: usize,
    /// RNG seed.
    pub seed: u64,
}

impl QConfig {
    /// Defaults tuned for the Astro actuation loop (small state, two
    /// dozen actions, checkpoints every 500 ms).
    pub fn astro_default(state_dim: usize, num_actions: usize) -> Self {
        QConfig {
            state_dim,
            num_actions,
            hidden: vec![64, 32],
            discount: 0.6,
            optimizer: Optimizer::default_adam(),
            epsilon_start: 1.0,
            epsilon_end: 0.05,
            epsilon_decay_steps: 400,
            replay_capacity: 4096,
            batch_size: 16,
            target_sync: 50,
            warmup: 16,
            seed: 0xA57,
        }
    }
}

/// A frozen, transportable copy of a learned policy: the network
/// parameters plus the dimensions they were trained for. Snapshots are
/// what a shared policy cache stores and ships between tenants — a new
/// agent warm-started from one begins where the previous tenant's
/// training ended ("compile once, schedule everywhere" at fleet scale).
#[derive(Clone, Debug, PartialEq)]
pub struct PolicySnapshot {
    /// Encoded state dimension the parameters expect.
    pub state_dim: usize,
    /// Number of actions the output layer covers.
    pub num_actions: usize,
    /// Flattened network parameters ([`crate::nn::Mlp::params`] order).
    pub params: Vec<f64>,
}

/// ε-greedy Q-learning agent over an MLP.
#[derive(Clone, Debug)]
pub struct QAgent {
    cfg: QConfig,
    net: Mlp,
    target: Mlp,
    replay: ReplayBuffer,
    rng: SmallRng,
    steps: u64,
}

impl QAgent {
    /// Build an agent from a configuration.
    pub fn new(cfg: QConfig) -> Self {
        let mut sizes = vec![cfg.state_dim];
        sizes.extend(&cfg.hidden);
        sizes.push(cfg.num_actions);
        let net = Mlp::new(&sizes, Activation::Relu, cfg.seed);
        let mut target = Mlp::new(&sizes, Activation::Relu, cfg.seed ^ 1);
        target.copy_params_from(&net);
        let replay = ReplayBuffer::new(cfg.replay_capacity);
        let rng = SmallRng::seed_from_u64(cfg.seed.wrapping_mul(0x2545F491));
        QAgent {
            cfg,
            net,
            target,
            replay,
            rng,
            steps: 0,
        }
    }

    /// Current exploration rate.
    pub fn epsilon(&self) -> f64 {
        let c = &self.cfg;
        if self.steps >= c.epsilon_decay_steps {
            c.epsilon_end
        } else {
            let frac = self.steps as f64 / c.epsilon_decay_steps as f64;
            c.epsilon_start + (c.epsilon_end - c.epsilon_start) * frac
        }
    }

    /// Observations consumed so far.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Q-values for a state (no exploration).
    pub fn q_values(&self, state: &[f64]) -> Vec<f64> {
        self.net.forward_inference(state)
    }

    /// Greedy action.
    pub fn best_action(&self, state: &[f64]) -> usize {
        argmax(&self.q_values(state))
    }

    /// ε-greedy action.
    pub fn select_action(&mut self, state: &[f64]) -> usize {
        if self.rng.gen::<f64>() < self.epsilon() {
            self.rng.gen_range(0..self.cfg.num_actions)
        } else {
            self.best_action(state)
        }
    }

    /// Record a transition and perform one learning step.
    pub fn observe(&mut self, e: Experience) {
        debug_assert_eq!(e.state.len(), self.cfg.state_dim);
        debug_assert!(e.action < self.cfg.num_actions);
        self.replay.push(e);
        self.steps += 1;
        if self.replay.len() >= self.cfg.warmup.max(1) {
            self.learn();
        }
        if self.steps.is_multiple_of(self.cfg.target_sync) {
            self.target.copy_params_from(&self.net);
        }
    }

    fn learn(&mut self) {
        let batch: Vec<Experience> = self
            .replay
            .sample(self.cfg.batch_size, &mut self.rng)
            .into_iter()
            .cloned()
            .collect();
        self.net.zero_grads();
        for e in &batch {
            let target_q = if e.terminal {
                e.reward
            } else {
                let next = self.target.forward_inference(&e.next_state);
                e.reward + self.cfg.discount * max_of(&next)
            };
            let q = self.net.forward(&e.state);
            // Gradient only on the taken action (Huber for stability).
            let mut grad = vec![0.0; q.len()];
            let err = q[e.action] - target_q;
            grad[e.action] = huber_grad(err, 1.0);
            self.net.backward(&grad);
        }
        self.net.step(self.cfg.optimizer, batch.len());
    }

    /// Freeze the policy into a table: greedy action per provided state.
    /// Used to synthesise the static/hybrid schedules of §3.3.
    pub fn extract_policy<'a>(&self, states: impl Iterator<Item = &'a [f64]>) -> Vec<usize> {
        states.map(|s| self.best_action(s)).collect()
    }

    /// Export the current policy network for caching/warm starts.
    pub fn snapshot(&self) -> PolicySnapshot {
        PolicySnapshot {
            state_dim: self.cfg.state_dim,
            num_actions: self.cfg.num_actions,
            params: self.net.params(),
        }
    }

    /// Warm-start this agent from a snapshot: both the online and the
    /// target network adopt the stored parameters (replay and step
    /// counters are untouched, so ε continues from this agent's own
    /// schedule). Returns `false` — leaving the agent unchanged — when
    /// the snapshot's dimensions do not match this agent's.
    pub fn restore(&mut self, snap: &PolicySnapshot) -> bool {
        if snap.state_dim != self.cfg.state_dim
            || snap.num_actions != self.cfg.num_actions
            || snap.params.len() != self.net.params().len()
        {
            return false;
        }
        self.net.set_params(&snap.params);
        self.target.copy_params_from(&self.net);
        true
    }
}

fn argmax(xs: &[f64]) -> usize {
    let mut best = 0;
    for (i, &x) in xs.iter().enumerate() {
        if x > xs[best] {
            best = i;
        }
    }
    best
}

fn max_of(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

/// Derivative of the Huber loss at error `e` with threshold `delta`.
fn huber_grad(e: f64, delta: f64) -> f64 {
    if e.abs() <= delta {
        e
    } else {
        delta * e.signum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A two-state toy MDP: action 0 pays 0.1, action 1 pays 1.0 in state
    /// A and penalises in state B. The agent must learn state-dependent
    /// actions — exactly the structure of "this program phase prefers
    /// that configuration".
    fn toy_state(a: bool) -> Vec<f64> {
        if a {
            vec![1.0, 0.0]
        } else {
            vec![0.0, 1.0]
        }
    }

    fn toy_reward(state_a: bool, action: usize) -> f64 {
        match (state_a, action) {
            (true, 1) => 1.0,
            (true, _) => 0.1,
            (false, 0) => 0.8,
            (false, _) => -0.5,
        }
    }

    fn trained_agent(steps: u64) -> QAgent {
        let mut cfg = QConfig::astro_default(2, 2);
        cfg.hidden = vec![16];
        cfg.epsilon_decay_steps = steps / 2;
        cfg.seed = 99;
        let mut agent = QAgent::new(cfg);
        let mut state_a = true;
        for _ in 0..steps {
            let s = toy_state(state_a);
            let a = agent.select_action(&s);
            let r = toy_reward(state_a, a);
            let next_a = !state_a; // deterministic alternation
            agent.observe(Experience {
                state: s,
                action: a,
                reward: r,
                next_state: toy_state(next_a),
                terminal: false,
            });
            state_a = next_a;
        }
        agent
    }

    #[test]
    fn learns_state_dependent_policy() {
        let agent = trained_agent(1500);
        assert_eq!(agent.best_action(&toy_state(true)), 1);
        assert_eq!(agent.best_action(&toy_state(false)), 0);
    }

    #[test]
    fn epsilon_anneals() {
        let mut cfg = QConfig::astro_default(2, 2);
        cfg.epsilon_decay_steps = 100;
        let mut agent = QAgent::new(cfg);
        assert!((agent.epsilon() - 1.0).abs() < 1e-12);
        for _ in 0..200 {
            agent.observe(Experience {
                state: vec![0.0, 1.0],
                action: 0,
                reward: 0.0,
                next_state: vec![1.0, 0.0],
                terminal: false,
            });
        }
        assert!((agent.epsilon() - 0.05).abs() < 1e-12);
    }

    #[test]
    fn q_values_have_action_arity() {
        let agent = QAgent::new(QConfig::astro_default(40, 24));
        let q = agent.q_values(&vec![0.0; 40]);
        assert_eq!(q.len(), 24);
    }

    #[test]
    fn deterministic_with_seed() {
        let a = trained_agent(300);
        let b = trained_agent(300);
        assert_eq!(a.q_values(&toy_state(true)), b.q_values(&toy_state(true)));
    }

    #[test]
    fn extract_policy_covers_states() {
        let agent = trained_agent(1500);
        let sa = toy_state(true);
        let sb = toy_state(false);
        let states: Vec<&[f64]> = vec![&sa, &sb];
        let policy = agent.extract_policy(states.into_iter());
        assert_eq!(policy, vec![1, 0]);
    }

    #[test]
    fn snapshot_restore_roundtrips_the_policy() {
        let trained = trained_agent(1500);
        let snap = trained.snapshot();
        let mut cfg = QConfig::astro_default(2, 2);
        cfg.hidden = vec![16];
        cfg.seed = 12345; // different init than the trained agent
        let mut fresh = QAgent::new(cfg);
        assert!(fresh.restore(&snap));
        assert_eq!(
            fresh.q_values(&toy_state(true)),
            trained.q_values(&toy_state(true))
        );
        assert_eq!(fresh.best_action(&toy_state(true)), 1);
        assert_eq!(fresh.best_action(&toy_state(false)), 0);
    }

    #[test]
    fn restore_rejects_mismatched_shapes() {
        let trained = trained_agent(300);
        let snap = trained.snapshot();
        let mut other = QAgent::new(QConfig::astro_default(3, 2));
        let before = other.q_values(&[0.0, 1.0, 0.0]);
        assert!(!other.restore(&snap));
        assert_eq!(other.q_values(&[0.0, 1.0, 0.0]), before);
    }

    #[test]
    fn huber_clips_large_errors() {
        assert_eq!(huber_grad(0.5, 1.0), 0.5);
        assert_eq!(huber_grad(5.0, 1.0), 1.0);
        assert_eq!(huber_grad(-5.0, 1.0), -1.0);
    }
}
