//! Hostile module bytes: mutants of the seven application modules go
//! through `decode` → `validate`, which must answer with `Ok` or an
//! error — never a panic, and never an allocation sized by a number the
//! guest wrote rather than by the bytes it supplied (a 28-byte module
//! once asked for 32 GiB and aborted the host; see
//! `wasm::decode::tests::a_count_beyond_the_input_is_eof_not_an_allocation`).
//! A mutant that validates is then prepared for the register tier:
//! lowering must not panic either, and a body it lowers is one the
//! unchecked register loop may run.
//!
//! Seeded and std-only; `WALI_FUZZ_SEED` replays another stream. A
//! global allocator records the largest single request made on the
//! testing thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

struct Watching;

// SAFETY: defers to `System` for every operation; the only addition is a
// store to a const-initialised, destructor-free thread-local, which
// itself never allocates.
unsafe impl GlobalAlloc for Watching {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST.with(|c| c.set(c.get().max(layout.size())));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LARGEST.with(|c| c.set(c.get().max(new_size)));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Watching = Watching;

/// Mutants per application module (7 × 3 000 = 21 000 in all).
const MUTANTS: u32 = 3_000;

/// Largest request a mutant may cause: a small multiple of its length
/// (an instruction vector reserved for one 24-byte instruction per body
/// byte is the biggest honest one), plus room for what the decoder caps
/// by constant (100 000 locals).
fn request_limit(len: usize) -> usize {
    32 * len + (256 << 10)
}

struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: usize) -> usize {
        (self.next() % bound.max(1) as u64) as usize
    }
}

/// One to four edits of `bytes`: a byte replaced, a bit flipped, the
/// tail cut off, a byte turned into the start of a longer LEB128 number,
/// or a maximal `u32` spliced in where a count may sit.
fn mutate(rng: &mut SplitMix64, bytes: &mut Vec<u8>) {
    for _ in 0..1 + rng.below(4) {
        if bytes.is_empty() {
            return;
        }
        let at = rng.below(bytes.len());
        match rng.below(5) {
            0 => bytes[at] = rng.next() as u8,
            1 => bytes[at] ^= 1 << rng.below(8),
            2 => bytes.truncate(at),
            3 => bytes[at] |= 0x80,
            _ => {
                bytes.splice(at..at + 1, [0xff, 0xff, 0xff, 0xff, 0x0f]);
            }
        }
    }
}

#[test]
fn mutated_app_modules_neither_panic_nor_size_allocations_from_counts() {
    let seed = std::env::var("WALI_FUZZ_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1);
    let apps = [
        apps::lua_sim(1),
        apps::bash_sim(1),
        apps::bash_builtin_sim(1),
        apps::sqlite_sim(1),
        apps::memcached_sim(1),
        apps::paho_mqtt_sim(1),
        apps::prefork_server_sim(1, 1),
    ];
    let mut rng = SplitMix64(seed);
    let (mut decoded, mut valid) = (0, 0);
    // Bodies of valid mutants, and of those the ones that lowered.
    let (mut bodies, mut lowered) = (0, 0);
    for app in &apps {
        let pristine = wasm::encode::encode(&app.module);
        for case in 0..MUTANTS {
            let mut bytes = pristine.clone();
            mutate(&mut rng, &mut bytes);
            LARGEST.with(|c| c.set(0));
            let verdict = std::panic::catch_unwind(|| {
                let module = wasm::decode::decode(&bytes).ok()?;
                Some(wasm::validate::validate(&module).map(|()| module).ok())
            });
            let largest = LARGEST.with(Cell::get);
            let what = format!("{} mutant {case} (seed {seed}): {bytes:?}", app.name);
            let verdict = verdict.unwrap_or_else(|_| panic!("panic on {what}"));
            assert!(
                largest <= request_limit(bytes.len()),
                "a {largest}-byte request for {} bytes of {what}",
                bytes.len()
            );
            decoded += verdict.is_some() as u32;
            let Some(Some(module)) = verdict else {
                continue;
            };
            valid += 1;
            // Lowering is all or nothing: a program with a body that does
            // not lower runs every body on the stack tier.
            let scheme = wasm::SafepointScheme::LoopHeaders;
            let image =
                std::panic::catch_unwind(|| wasm::prep::Prepared::of(&module, scheme, true))
                    .unwrap_or_else(|_| panic!("lowering panicked on {what}"))
                    .unwrap_or_else(|e| panic!("{e:?} preparing valid {what}"));
            let regs: Vec<_> = image.bodies.iter().map(|b| b.lowered()).collect();
            assert!(
                regs.iter().all(|r| r.is_some() == image.regir),
                "a program on both tiers: {what}"
            );
            for reg in regs.iter().flatten() {
                assert!(reg.in_bounds(), "a lowered body out of bounds: {what}");
            }
            bodies += regs.len() as u32;
            lowered += regs.iter().flatten().count() as u32;
        }
    }
    // The stream is not all noise: about a tenth of the mutants decode
    // and half of those validate.
    assert!(
        decoded > 500 && valid > 100,
        "{decoded} decoded, {valid} valid"
    );
    println!("{decoded} decoded, {valid} valid; {lowered} of their {bodies} bodies lowered");
}
