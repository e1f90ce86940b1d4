//! Scenario fuzzer for the WALI runtime.
//!
//! Pipeline: a seeded [`rng::SplitMix64`] drives [`gen::generate`] to
//! build a random — but provably deadlock-free — process/IPC DAG;
//! [`oracle::check`] executes it under the scheduler/backing matrix and
//! judges determinism, toggle equivalence and liveness; on failure
//! [`shrink::shrink`] cuts the scenario down while the failure still
//! reproduces and the result is written as a replayable
//! [`artifact::Artifact`]. The `wazi` binary (`wazi fuzz`,
//! `wazi replay`, `wazi gen`, `wazi fingerprint`) fronts the same entry
//! points; the regression corpus under `corpus/` replays through them
//! as named tier-1 tests. [`fingerprint`] dumps what the determinism
//! oracle compares, for diffing across commits.

pub mod artifact;
pub mod fingerprint;
pub mod gen;
pub mod oracle;
pub mod rng;
pub mod shrink;

use artifact::Artifact;
use oracle::{Failure, OracleConfig};

/// Evaluation budget for one shrink (oracle batteries, not runs).
pub const SHRINK_BUDGET: usize = 200;

/// A failure the fuzzer found, shrunk and packaged.
#[derive(Debug)]
pub struct Found {
    /// The seed whose scenario failed.
    pub seed: u64,
    /// The failure observed on the *original* generated scenario.
    pub failure: Failure,
    /// The shrunk artifact (scenario may be much smaller than the
    /// seed's).
    pub artifact: Artifact,
    /// Oracle batteries spent shrinking.
    pub shrink_evals: usize,
}

/// Generates and checks one seed. `Ok` means every oracle passed.
pub fn run_seed(seed: u64, cfg: &OracleConfig) -> Result<(), Failure> {
    oracle::check(&gen::generate(seed), cfg)
}

/// Replays an artifact's scenario (validating it first — artifacts are
/// hand-editable text) under the full oracle battery.
pub fn replay(art: &Artifact, cfg: &OracleConfig) -> Result<(), Failure> {
    if let Err(e) = art.scenario.validate() {
        return Err(Failure {
            kind: oracle::FailureKind::RunError,
            config: "validate".into(),
            detail: e,
        });
    }
    oracle::check(&art.scenario, cfg)
}

/// An oracle battery [`fuzz`] is about to run, as its progress callback
/// hears of it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Battery {
    /// The battery over a seed's generated scenario.
    Seed(u64),
    /// One battery of the shrink of the seed that failed.
    Shrink(u64),
}

/// Fuzzes `count` seeds starting at `start`. Stops at the first failure
/// and returns it shrunk; `retries` extra oracle attempts classify a
/// candidate as still-failing during shrinking (raise it above 1 when
/// hunting a nondeterministic race, where one green run proves
/// nothing). `progress` hears of every oracle battery before it runs.
pub fn fuzz(
    start: u64,
    count: u64,
    cfg: &OracleConfig,
    retries: u32,
    mut progress: impl FnMut(Battery),
) -> Option<Found> {
    for i in 0..count {
        let seed = start.wrapping_add(i);
        progress(Battery::Seed(seed));
        let Err(failure) = run_seed(seed, cfg) else {
            continue;
        };
        let scn = gen::generate(seed);
        let mut fails = |s: &apps::scenario::Scenario| -> bool {
            (0..retries.max(1)).any(|_| {
                progress(Battery::Shrink(seed));
                oracle::check(s, cfg).is_err()
            })
        };
        let (small, shrink_evals) = shrink::shrink(&scn, SHRINK_BUDGET, &mut |s| fails(s));
        return Some(Found {
            seed,
            failure: failure.clone(),
            artifact: Artifact {
                seed,
                failure: failure.to_string(),
                scenario: small,
            },
            shrink_evals,
        });
    }
    None
}
