//! Safepoint insertion schemes for asynchronous signal delivery.
//!
//! Asynchronous signals must only be delivered where Wasm state is
//! consistent (paper §3.3): the compiler inserts *safepoints* and the
//! engine polls for pending signals there. The scheme trades reactivity
//! against overhead — Table 3 of the paper quantifies all three.
//!
//! Both interpreter tiers honour the same safepoint schedule. The tier-2
//! register interpreter needs no spill step at a poll: its registers
//! *are* frame slots (`stack[base + r]`), always canonical, so a
//! handler frame can be pushed — or the thread cloned by `fork` —
//! at any safepoint without materialising extra state.

/// Where `prep` inserts safepoint polls.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum SafepointScheme {
    /// No polling: asynchronous signals are never delivered.
    None,
    /// Poll at loop back-edge headers (the paper's production choice:
    /// reactive inside hot loops, negligible cost elsewhere).
    #[default]
    LoopHeaders,
    /// Poll on every function entry (better for compiler optimization of
    /// loops, less reactive inside long loop bodies).
    FunctionEntry,
    /// Poll after every instruction (prohibitively slow; included for the
    /// Table 3 ablation).
    EveryInstruction,
}

impl SafepointScheme {
    /// All schemes, for sweeps.
    pub const ALL: [SafepointScheme; 4] = [
        SafepointScheme::None,
        SafepointScheme::LoopHeaders,
        SafepointScheme::FunctionEntry,
        SafepointScheme::EveryInstruction,
    ];

    /// Human-readable name matching the paper's Table 3 columns.
    pub fn name(self) -> &'static str {
        match self {
            SafepointScheme::None => "none",
            SafepointScheme::LoopHeaders => "loop",
            SafepointScheme::FunctionEntry => "function",
            SafepointScheme::EveryInstruction => "all",
        }
    }
}

impl std::fmt::Display for SafepointScheme {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}
