//! Property tests of the fault-tolerant ingestion path, all through the
//! VOPR driver's one solo entry, `check_solo_plan`: arbitrary seeded
//! fault plans — drops, duplicates, reordering, corruption, delays,
//! rank deaths and births, buffer caps — agree with the admission
//! oracle delivery by delivery, never panic the ingestor, close the
//! exact window cover of the data they admitted, keep the coverage and
//! delivery accounting sound, and produce identical reports pipelined
//! or inline. Clean plans stay bit-identical to the one-shot analysis;
//! births match a from-start reference. Fleet plans keep every job
//! isolated.

use proptest::prelude::*;
use vapro_bench::chaos::{check_fleet_invariants, run_fleet_plan, FaultPlan, FleetPlan};
use vapro_vopr::check_solo_plan;

/// Small plans: the suite runs on a single-core gate, so each case is a
/// few hundred fragments over a handful of periods.
fn plan_strategy() -> impl Strategy<Value = FaultPlan> {
    (
        (0u64..1u64 << 32, 2usize..4, 100usize..250, 4usize..7),
        (0.0f64..0.25, 0.0f64..0.3, 0.0f64..0.6, 0.0f64..0.15, 0.0f64..0.3),
    )
        .prop_flat_map(|(shape, faults)| {
            let (_, nranks, _, periods) = shape;
            let deaths = prop_oneof![
                Just(Vec::new()),
                (0..nranks, 1..periods - 1).prop_map(|(r, p)| vec![(r, p)]),
            ];
            let births = prop_oneof![
                Just(Vec::new()),
                (1..3usize.min(periods - 2) + 1).prop_map(|p| vec![p]),
            ];
            let cap = prop_oneof![Just(None), (4_096u64..65_536).prop_map(Some)];
            (Just(shape), Just(faults), deaths, births, cap)
        })
        .prop_map(
            |(
                (seed, nranks, frags, periods),
                (drop, duplicate, reorder, corrupt, delay),
                deaths,
                births,
                max_buffered_bytes,
            )| FaultPlan {
                seed,
                nranks,
                frags_per_rank: frags,
                periods,
                drop,
                duplicate,
                reorder,
                corrupt,
                delay,
                deaths,
                births,
                max_buffered_bytes,
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Any plan: oracle agreement, no panic, exact window cover, sound
    /// coverage and accounting, pipelined ≡ inline down to the arena
    /// byte trajectory.
    #[test]
    fn arbitrary_fault_plans_pass_every_solo_check(plan in plan_strategy()) {
        if let Err(e) = check_solo_plan(&plan) {
            prop_assert!(false, "{}", e);
        }
    }

    /// Clean transports are bit-identical to the one-shot analysis even
    /// with the straggler policy armed.
    #[test]
    fn clean_plans_match_one_shot_analysis(seed in 0u64..1u64 << 32) {
        let mut plan = FaultPlan::fault_free(seed);
        plan.frags_per_rank = 150;
        plan.periods = 5;
        if let Err(e) = check_solo_plan(&plan) {
            prop_assert!(false, "{}", e);
        }
    }

    /// A rank born at any admissible period, on an otherwise clean
    /// transport, leaves every post-birth window bit-identical to a run
    /// where the rank was always present.
    #[test]
    fn births_are_equivalent_to_always_present_ranks(
        seed in 0u64..1u64 << 32,
        first in 1usize..4,
    ) {
        let plan = FaultPlan { births: vec![first], ..FaultPlan::fault_free(seed) };
        if let Err(e) = check_solo_plan(&plan) {
            prop_assert!(false, "{}", e);
        }
    }

    /// Any random fleet plan — several jobs with private fault mixes
    /// (job 0 always clean) interleaved through a sharded fleet — keeps
    /// every job bit-identical to its solo run: no cross-tenant
    /// corruption, no cross-tenant stalls, exact per-job window tiling.
    #[test]
    fn arbitrary_fleet_plans_stay_isolated(seed in 0u64..1u64 << 32) {
        let plan = FleetPlan::random(seed);
        let outcome = run_fleet_plan(&plan);
        if let Err(e) = check_fleet_invariants(&plan, &outcome) {
            prop_assert!(false, "{}", e);
        }
    }
}

/// Hand-picked plans, one per fault mix: every axis with a death, a
/// birth under chaos, a buffer cap under heavy delay, and a clean birth.
#[test]
fn seeded_fault_mixes_pass_every_solo_check() {
    let hostile = FaultPlan {
        drop: 0.1,
        duplicate: 0.2,
        reorder: 0.4,
        corrupt: 0.1,
        delay: 0.15,
        deaths: vec![(0, 2)],
        ..FaultPlan::fault_free(41)
    };
    let plans = [
        hostile.clone(),
        FaultPlan { seed: 21, deaths: vec![(1, 2)], ..hostile },
        FaultPlan {
            drop: 0.1,
            duplicate: 0.2,
            reorder: 0.4,
            delay: 0.15,
            births: vec![2],
            ..FaultPlan::fault_free(57)
        },
        FaultPlan {
            reorder: 0.6,
            delay: 0.5,
            max_buffered_bytes: Some(4_096),
            ..FaultPlan::fault_free(31)
        },
        FaultPlan { births: vec![2], ..FaultPlan::fault_free(13) },
    ];
    for plan in &plans {
        check_solo_plan(plan).unwrap_or_else(|e| panic!("{e}"));
    }
}
