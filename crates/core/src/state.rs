//! States (Definition 3.2): `⟨H, S, D⟩` — hardware configuration,
//! program phase, hardware phase — and their encodings.

use astro_compiler::ProgramPhase;
use astro_hw::config::ConfigSpace;
use astro_hw::counters::HwPhase;
use astro_rl::encoding::one_hot;

/// The discrete state space of the Astro MDP for one board.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AstroStateSpace {
    /// Configuration space of the board (the action set too: one action
    /// per configuration).
    pub configs: ConfigSpace,
}

impl AstroStateSpace {
    /// The Odroid XU4 state space used throughout the evaluation:
    /// 24 configurations × 4 program phases × 81 hardware phases.
    pub const ODROID_XU4: AstroStateSpace = AstroStateSpace {
        configs: ConfigSpace::ODROID_XU4,
    };

    /// Number of discrete states.
    pub fn num_states(&self) -> usize {
        self.configs.num_configs() * ProgramPhase::COUNT * HwPhase::COUNT
    }

    /// Number of actions (next-configuration choices).
    pub fn num_actions(&self) -> usize {
        self.configs.num_configs()
    }

    /// Dense index of a state (for tabular agents).
    pub fn state_index(&self, config_idx: usize, phase: ProgramPhase, hw: HwPhase) -> usize {
        debug_assert!(config_idx < self.configs.num_configs());
        (config_idx * ProgramPhase::COUNT + phase.index()) * HwPhase::COUNT + hw.index()
    }

    /// Dimension of the NN encoding: one-hot configuration ⊕ one-hot
    /// program phase ⊕ one-hot bucket per counter (4 counters × 3).
    pub fn encoding_dim(&self) -> usize {
        self.configs.num_configs() + ProgramPhase::COUNT + 4 * 3
    }

    /// Encode a state for the network.
    pub fn encode(&self, config_idx: usize, phase: ProgramPhase, hw: HwPhase) -> Vec<f64> {
        let mut v = Vec::with_capacity(self.encoding_dim());
        one_hot(&mut v, config_idx, self.configs.num_configs());
        one_hot(&mut v, phase.index(), ProgramPhase::COUNT);
        one_hot(&mut v, hw.ipc as usize, 3);
        one_hot(&mut v, hw.cma as usize, 3);
        one_hot(&mut v, hw.cmi as usize, 3);
        one_hot(&mut v, hw.cpu as usize, 3);
        v
    }

    /// Encode a *phase-blind* state (the Hipster baseline: no program
    /// phase in the state — RQ3's "customised state").
    pub fn encode_phase_blind(&self, config_idx: usize, hw: HwPhase) -> Vec<f64> {
        let mut v = Vec::with_capacity(self.encoding_dim());
        one_hot(&mut v, config_idx, self.configs.num_configs());
        // Program-phase field zeroed: the learner cannot see it.
        v.extend_from_slice(&[0.0; ProgramPhase::COUNT]);
        one_hot(&mut v, hw.ipc as usize, 3);
        one_hot(&mut v, hw.cma as usize, 3);
        one_hot(&mut v, hw.cmi as usize, 3);
        one_hot(&mut v, hw.cpu as usize, 3);
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_state_counts() {
        let s = AstroStateSpace::ODROID_XU4;
        assert_eq!(s.num_actions(), 24);
        assert_eq!(s.num_states(), 24 * 4 * 81);
        assert_eq!(s.encoding_dim(), 24 + 4 + 12);
    }

    #[test]
    fn state_index_is_bijective() {
        let s = AstroStateSpace::ODROID_XU4;
        let mut seen = vec![false; s.num_states()];
        for c in 0..s.num_actions() {
            for p in ProgramPhase::ALL {
                for h in 0..HwPhase::COUNT {
                    let i = s.state_index(c, p, HwPhase::from_index(h));
                    assert!(!seen[i], "collision at {i}");
                    seen[i] = true;
                }
            }
        }
        assert!(seen.iter().all(|&x| x));
    }

    #[test]
    fn encoding_has_exactly_six_hot_bits() {
        let s = AstroStateSpace::ODROID_XU4;
        let v = s.encode(7, ProgramPhase::CpuBound, HwPhase::from_index(40));
        assert_eq!(v.len(), 40);
        assert_eq!(v.iter().filter(|&&x| x == 1.0).count(), 6);
    }

    #[test]
    fn phase_blind_encoding_hides_phase_only() {
        let s = AstroStateSpace::ODROID_XU4;
        let hw = HwPhase::from_index(13);
        let blind_a = s.encode_phase_blind(3, hw);
        let full_a = s.encode(3, ProgramPhase::Blocked, hw);
        let full_b = s.encode(3, ProgramPhase::CpuBound, hw);
        assert_eq!(blind_a.len(), full_a.len(), "same network shape");
        assert_ne!(full_a, full_b, "full encoding distinguishes phases");
        // The blind encoding equals the full one with the phase field zeroed.
        let mut zeroed = full_a.clone();
        zeroed[24..28].fill(0.0);
        assert_eq!(blind_a, zeroed);
    }
}
