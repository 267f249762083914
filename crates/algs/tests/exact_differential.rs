//! Differential test of the exact search: on every class Elevator hands
//! it, the production search in `sap_algs::exact` must return the same
//! placements as the previous search, kept as an oracle in
//! `exact_oracle/`.
//!
//! The classes are built the way the medium arm builds them: the default
//! three-way split, the (1−2β)-smallness filter, scaling by `2^{q+ℓ}`,
//! the `J^{k,ℓ}` classes, and the band clip, keeping the classes no
//! larger than `max_class_size`. The instances use the shape of the
//! benchmark's `cold-mixed` lines: 12 edges, Mixed demands, random-walk
//! capacities in 32..=512, spans of at most 4 edges, weights up to 40.
//!
//! `cargo test --release -p sap-algs --test exact_differential -- --ignored`
//! runs the wide sweep.

mod exact_oracle;

use sap_algs::baselines::greedy_sap_best;
use sap_algs::{solve_exact_sap, MediumParams, SapParams};
use sap_core::{
    classes_k_ell, classify_by_size, clip_to_band, Instance, PathNetwork, Ratio, Task,
};
use sap_gen::{generate, CapacityProfile, DemandRegime, GenConfig};

fn shape(num_tasks: usize) -> GenConfig {
    GenConfig {
        num_edges: 12,
        num_tasks,
        profile: CapacityProfile::RandomWalk { lo: 32, hi: 512 },
        regime: DemandRegime::Mixed,
        max_span: 4,
        max_weight: 40,
    }
}

/// Every capacity and demand times `factor` (the medium arm's scaling).
fn scale(instance: &Instance, factor: u64) -> Instance {
    let caps = instance.network().capacities().iter().map(|&c| c * factor).collect();
    let tasks = instance.tasks().iter().map(|t| Task { demand: t.demand * factor, ..*t });
    Instance::new(PathNetwork::new(caps).unwrap(), tasks.collect()).unwrap()
}

/// The class sub-instances Elevator passes to the exact search.
fn elevator_classes(instance: &Instance) -> Vec<Instance> {
    let sap = SapParams::default();
    let params = MediumParams::default();
    let (q, ell) = (params.q, params.ell);
    let smallness = Ratio::new((1 << q) - 2, 1 << q);
    let medium: Vec<_> = classify_by_size(instance, sap.delta_small, sap.delta_large)
        .medium
        .into_iter()
        .filter(|&j| smallness.le_scaled(instance.demand(j), instance.bottleneck(j)))
        .collect();
    if medium.is_empty() {
        return Vec::new();
    }
    let scaled = scale(instance, 1 << (q + ell));
    classes_k_ell(&scaled, &medium, ell)
        .into_iter()
        .filter_map(|(k, members)| clip_to_band(&scaled, &members, 1 << k, 1 << (k + ell)).ok())
        .map(|(sub, _)| sub)
        .filter(|sub| sub.num_tasks() <= params.max_class_size)
        .collect()
}

#[derive(Debug, Default)]
struct Tally {
    /// Classes both searches finished, with identical placements.
    same: usize,
    /// Classes the oracle abandoned and the new search finished.
    flipped: usize,
    /// Classes both searches abandoned.
    both_exhausted: usize,
}

/// Diffs both searches on every Elevator class of `seeds` instances of
/// `num_tasks` tasks.
fn diff_classes(num_tasks: usize, seeds: std::ops::Range<u64>) -> Tally {
    let config = MediumParams::default().exact;
    let mut tally = Tally::default();
    for seed in seeds {
        let instance = generate(&shape(num_tasks), seed);
        for (c, sub) in elevator_classes(&instance).iter().enumerate() {
            let ids = sub.all_ids();
            let new = solve_exact_sap(sub, &ids, config);
            match exact_oracle::solve_exact_sap(sub, &ids, config) {
                Some(old) => {
                    let new = new.unwrap_or_else(|| {
                        panic!("seed {seed} class {c}: only the new search exhausted")
                    });
                    assert_eq!(new.placements, old.placements, "seed {seed} class {c}");
                    tally.same += 1;
                }
                None => match new {
                    Some(sol) => {
                        sol.validate(sub).unwrap();
                        let greedy = greedy_sap_best(sub, &ids).weight(sub);
                        assert!(sol.weight(sub) >= greedy, "seed {seed} class {c}");
                        tally.flipped += 1;
                    }
                    None => tally.both_exhausted += 1,
                },
            }
        }
    }
    tally
}

#[test]
fn same_placements_on_cold_mixed_classes() {
    let tally = diff_classes(16, 0..200);
    assert!(tally.same > 1000, "too few classes compared: {tally:?}");
}

/// Seed 145 of the 30-task shape has two classes the oracle abandons at
/// the state cap and the new search finishes.
#[test]
fn wider_classes_agree_wherever_the_oracle_finishes() {
    let tally = diff_classes(30, 140..150);
    assert!(tally.same > 50 && tally.flipped > 0, "vacuous: {tally:?}");
}

#[test]
#[ignore = "wide sweep; run in release with --ignored"]
fn same_placements_on_cold_mixed_classes_wide() {
    let tally = diff_classes(16, 0..3000);
    assert!(tally.same > 15_000, "too few classes compared: {tally:?}");
}

#[test]
#[ignore = "wide sweep; run in release with --ignored"]
fn wider_classes_agree_wherever_the_oracle_finishes_wide() {
    let tally = diff_classes(30, 0..220);
    assert!(tally.same > 1000 && tally.flipped > 0, "vacuous: {tally:?}");
}
