//! Early-exit bound parity: the executor's decision-only test
//! (`Scanner::bound_below`, the same function the executor calls) must
//! agree with the full-max §4.4 upper bound it replaced, and the pool row
//! behind both, folded incrementally, must equal a refold from the unit
//! row bit for bit.
//!
//! The full-max bound and the from-scratch refold live only here, as the
//! references. The check runs after every scanned tuple, a superset of the
//! executor's `ub_check_interval` points, over independent-only tables,
//! rule-heavy tables, and tables whose open rules reach masses within
//! `1e-6` of 1 (where `dp::deconvolve` declines and the bound term is 1).

use std::cell::Cell;

use ptk_core::check::{check, Config};
use ptk_core::rng::{RngExt, StdRng};
use ptk_core::{prop_assert_eq, RankedView};
use ptk_engine::dp::{self, DECONVOLVE_MASS_SLACK};
use ptk_engine::{Scanner, SharingVariant};

const VARIANTS: [SharingVariant; 3] = [
    SharingVariant::Rc,
    SharingVariant::Aggressive,
    SharingVariant::Lazy,
];

/// A rule's absorbed mass after its first `absorbed` members, accumulated
/// exactly as the compressor does (member order, clamped at 1 per step).
fn rule_mass(view: &RankedView, members: &[usize], absorbed: usize) -> f64 {
    members[..absorbed]
        .iter()
        .fold(0.0f64, |mass, &pos| (mass + view.prob(pos)).min(1.0))
}

/// The pool row after scanning ranks `0..scanned`, refolded from the unit
/// row: stable items (independents, and rules whose last member has been
/// scanned) in availability order, then open rules by ascending rule
/// index. Also returns the open rules' masses.
fn refold(view: &RankedView, k: usize, scanned: usize) -> (Vec<f64>, Vec<f64>) {
    let mut row = dp::unit_row(k);
    for pos in 0..scanned {
        match view.rule_at(pos) {
            None => dp::convolve_in_place(&mut row, view.prob(pos)),
            Some(h) => {
                let members = &view.rules()[h.index()].members;
                if members.last() == Some(&pos) {
                    dp::convolve_in_place(&mut row, rule_mass(view, members, members.len()));
                }
            }
        }
    }
    let mut open = Vec::new();
    for rule in view.rules() {
        let absorbed = rule.members.iter().filter(|&&pos| pos < scanned).count();
        if absorbed > 0 && absorbed < rule.members.len() {
            let mass = rule_mass(view, &rule.members, absorbed);
            dp::convolve_in_place(&mut row, mass);
            open.push(mass);
        }
    }
    (row, open)
}

/// What a sweep exercised, so a vacuous sweep fails instead of passing.
#[derive(Default)]
struct Seen {
    /// Probes where the scan stops.
    stops: Cell<usize>,
    /// Probes where it goes on.
    goes: Cell<usize>,
    /// Open-rule terms `dp::deconvolve` declined (term = 1).
    declined: Cell<usize>,
}

fn bump(c: &Cell<usize>) {
    c.set(c.get() + 1);
}

/// The replaced bound: the largest of the pool's partial sum and every
/// open rule's deconvolved term, capped at 1.
fn full_max_bound(pool: &[f64], open: &[f64], seen: &Seen) -> f64 {
    let mut ub = dp::partial_sum(pool);
    for &mass in open {
        let term = match dp::deconvolve(pool, mass) {
            Some(row) => dp::partial_sum(&row) + DECONVOLVE_MASS_SLACK,
            None => {
                bump(&seen.declined);
                1.0
            }
        };
        ub = ub.max(term);
    }
    ub.min(1.0)
}

/// Thresholds to probe: a fixed grid over `(0, 1]` plus the bound itself
/// and its neighbours, where the two tests could first disagree.
fn probes(ub: f64) -> Vec<f64> {
    let mut ps = vec![1e-9, 0.01, 0.1, 0.2, 0.35, 0.5, 0.75, 0.9, 0.999_999, 1.0];
    for p in [ub, ub.next_up(), ub.next_down()] {
        if p > 0.0 && p <= 1.0 {
            ps.push(p);
        }
    }
    ps
}

/// Scans `view` step by step and checks, after every tuple, the pool row
/// bits, the open-rule masses and the stop decision at every probe.
fn check_scan(
    view: &RankedView,
    k: usize,
    variant: SharingVariant,
    seen: &Seen,
) -> Result<(), String> {
    let mut scanner = Scanner::new(view, k, variant);
    let mut scanned = 0;
    loop {
        let (reference, open) = refold(view, k, scanned);
        let pool = scanner.pool_row();
        prop_assert_eq!(
            pool.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            reference.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            "pool row after {} tuples (k = {}, {:?})",
            scanned,
            k,
            variant
        );
        let masses: Vec<f64> = scanner.open_rules().iter().map(|&(_, m)| m).collect();
        prop_assert_eq!(&masses, &open, "open rules after {} tuples", scanned);
        let ub = full_max_bound(&reference, &open, seen);
        for p in probes(ub) {
            let stop = scanner.bound_below(p);
            bump(if stop { &seen.stops } else { &seen.goes });
            prop_assert_eq!(
                stop,
                ub < p,
                "stop decision after {} tuples at p = {} (bound {}, k = {})",
                scanned,
                p,
                ub,
                k
            );
        }
        if scanner.step().is_none() {
            return Ok(());
        }
        scanned += 1;
    }
}

/// Groups random positions into rules of 2..=`max_len` members, each
/// member's probability drawn so the rule's total mass stays below 1.
fn random_rules(
    rng: &mut StdRng,
    probs: &mut [f64],
    share: f64,
    max_len: usize,
) -> Vec<Vec<usize>> {
    let n = probs.len();
    let mut positions: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = rng.random_range(0..=i);
        positions.swap(i, j);
    }
    let mut groups = Vec::new();
    let mut cursor = 0;
    while cursor + 1 < n {
        if rng.random_range(0.0..1.0f64) < share {
            let len = rng.random_range(2..=max_len).min(n - cursor);
            let mut group = positions[cursor..cursor + len].to_vec();
            group.sort_unstable();
            for &pos in &group {
                probs[pos] = rng.random_range(0.01..1.0f64) / len as f64;
            }
            groups.push(group);
            cursor += len;
        } else {
            cursor += 1;
        }
    }
    groups
}

fn probs(rng: &mut StdRng, n: usize) -> Vec<f64> {
    (0..n).map(|_| rng.random_range(0.01..=1.0f64)).collect()
}

#[test]
fn bound_matches_full_max_on_independent_tables() {
    let seen = Seen::default();
    check(
        "bound_below == full-max bound (independent)",
        Config::cases(48).sizes(1, 80).seed(0xb0_0001),
        |rng, size| {
            let n = rng.random_range(1..=size);
            let view = RankedView::from_ranked_probs(&probs(rng, n), &[]).unwrap();
            let k = rng.random_range(1..=n.min(12));
            check_scan(&view, k, VARIANTS[rng.random_range(0..3usize)], &seen)
        },
    );
    assert!(seen.stops.get() > 0 && seen.goes.get() > 0);
}

#[test]
fn bound_matches_full_max_on_rule_heavy_tables() {
    let seen = Seen::default();
    check(
        "bound_below == full-max bound (rule-heavy)",
        Config::cases(48).sizes(2, 80).seed(0xb0_0002),
        |rng, size| {
            let n = rng.random_range(2..=size.max(2));
            let mut p = probs(rng, n);
            let groups = random_rules(rng, &mut p, 0.8, 6);
            let view = RankedView::from_ranked_probs(&p, &groups).unwrap();
            let k = rng.random_range(1..=n.min(12));
            for variant in VARIANTS {
                check_scan(&view, k, variant, &seen)?;
            }
            Ok(())
        },
    );
    assert!(seen.stops.get() > 0 && seen.goes.get() > 0);
}

#[test]
fn bound_matches_full_max_when_open_rules_approach_one() {
    let seen = Seen::default();
    check(
        "bound_below == full-max bound (near-1 rule masses)",
        Config::cases(48).sizes(3, 60).seed(0xb0_0003),
        |rng, size| {
            let n = rng.random_range(3..=size.max(3));
            let mut p = probs(rng, n);
            let mut groups = random_rules(rng, &mut p, 0.4, 4);
            // One more rule of three members whose first two carry all but
            // `eps < 1e-6` of the mass: once both are scanned the rule is
            // open with a mass `dp::deconvolve` refuses to remove.
            let taken: Vec<bool> = (0..n)
                .map(|pos| groups.iter().any(|g| g.contains(&pos)))
                .collect();
            let free: Vec<usize> = (0..n).filter(|&pos| !taken[pos]).collect();
            if free.len() >= 3 {
                let eps = rng.random_range(1e-9..1e-6f64);
                let split = rng.random_range(0.2..0.8f64);
                let (a, b, c) = (free[0], free[1], free[free.len() - 1]);
                p[a] = (1.0 - eps) * split;
                p[b] = (1.0 - eps) * (1.0 - split);
                p[c] = eps;
                groups.push(vec![a, b, c]);
            }
            let view = RankedView::from_ranked_probs(&p, &groups).unwrap();
            let k = rng.random_range(1..=n.min(12));
            check_scan(&view, k, SharingVariant::Lazy, &seen)
        },
    );
    assert!(seen.stops.get() > 0 && seen.goes.get() > 0);
    assert!(
        seen.declined.get() > 0,
        "no open rule reached a near-1 mass"
    );
}
