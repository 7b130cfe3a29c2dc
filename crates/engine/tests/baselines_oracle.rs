//! Randomized oracle tests for the §6.1 baselines answered through the
//! generating-function scan: U-TopK and U-KRanks must agree with naive
//! possible-world enumeration on small random tables — probabilities to
//! 1e-10, U-KRanks winners exactly, and the U-TopK vector must really have
//! the probability claimed for it.

use ptk_access::ViewSource;
use ptk_core::rng::{RngExt, SeedableRng, StdRng};
use ptk_core::RankedView;
use ptk_engine::{EngineOptions, PtkExecutor, PtkPlan, RankSemantics, SemanticsAnswer};
use ptk_worlds::naive;

fn random_view(rng: &mut StdRng, max_n: usize) -> RankedView {
    let n = rng.random_range(1..=max_n);
    let probs: Vec<f64> = (0..n).map(|_| rng.random_range(0.05..=1.0f64)).collect();
    let mut positions: Vec<usize> = (0..n).collect();
    for i in (1..positions.len()).rev() {
        let j = rng.random_range(0..=i);
        positions.swap(i, j);
    }
    let mut groups: Vec<Vec<usize>> = Vec::new();
    let mut cursor = 0;
    while cursor + 1 < positions.len() {
        if rng.random_range(0.0..1.0f64) < 0.5 {
            let size = rng.random_range(2..=4usize).min(positions.len() - cursor);
            let group: Vec<usize> = positions[cursor..cursor + size].to_vec();
            let mass: f64 = group.iter().map(|&p| probs[p]).sum();
            if mass <= 1.0 {
                groups.push(group);
                cursor += size;
                continue;
            }
        }
        cursor += 1;
    }
    RankedView::from_ranked_probs(&probs, &groups).unwrap()
}

fn answer_of(view: &RankedView, semantics: RankSemantics, k: usize) -> SemanticsAnswer {
    let plan = PtkPlan::try_semantics(semantics, k, None, &EngineOptions::default()).unwrap();
    let mut source = ViewSource::new(view);
    PtkExecutor::new(&plan)
        .execute_semantics(&mut source)
        .unwrap()
}

/// The U-TopK vector (ranked positions) and its probability.
fn utopk(view: &RankedView, k: usize) -> (Vec<usize>, f64) {
    match answer_of(view, RankSemantics::UTopK, k) {
        SemanticsAnswer::UTopK {
            rows, probability, ..
        } => (rows.iter().map(|r| r.position).collect(), probability),
        other => panic!("u-topk answered {:?}", other.semantics()),
    }
}

#[test]
fn utopk_matches_enumeration() {
    let mut rng = StdRng::seed_from_u64(0xabc1);
    for trial in 0..80 {
        let view = random_view(&mut rng, 10);
        let k = rng.random_range(1..=4usize);
        let (oracle_vec, oracle_prob) = naive::utopk(&view, k).unwrap();
        let (vector, probability) = utopk(&view, k);
        // Probabilities must match exactly (ties may pick a different but
        // equally probable vector).
        assert!(
            (probability - oracle_prob).abs() < 1e-10,
            "trial {trial} k={k}: engine {probability} vs oracle {oracle_prob} \
             ({vector:?} vs {oracle_vec:?})"
        );
        // And the engine's vector must really have the probability it
        // claims, per enumeration.
        let direct: f64 = ptk_worlds::enumerate(&view)
            .unwrap()
            .iter()
            .filter(|w| w.top_k(k) == vector.as_slice())
            .map(|w| w.prob)
            .sum();
        assert!(
            (direct - probability).abs() < 1e-10,
            "trial {trial}: claimed {probability} but enumeration gives {direct}"
        );
    }
}

#[test]
fn ukranks_matches_enumeration() {
    let mut rng = StdRng::seed_from_u64(0xabc2);
    for trial in 0..80 {
        let view = random_view(&mut rng, 10);
        let k = rng.random_range(1..=4usize);
        let oracle = naive::ukranks(&view, k).unwrap();
        let SemanticsAnswer::UKRanks(rows) = answer_of(&view, RankSemantics::UKRanks, k) else {
            panic!("trial {trial}: not a U-KRanks answer");
        };
        assert_eq!(rows.len(), k);
        for (j, (row, &(position, probability))) in rows.iter().zip(&oracle).enumerate() {
            assert!(
                (row.value - probability).abs() < 1e-10,
                "trial {trial} rank {j}: {} vs {probability}",
                row.value
            );
            assert_eq!(
                row.position, position,
                "trial {trial} rank {j} winner mismatch"
            );
        }
    }
}

#[test]
fn utopk_edge_cases() {
    // No tuples: the empty vector is certain.
    let empty = RankedView::from_ranked_probs(&[], &[]).unwrap();
    assert_eq!(utopk(&empty, 2), (vec![], 1.0));
    // A certain prefix is the vector, with probability 1.
    let certain = RankedView::from_ranked_probs(&[1.0, 1.0, 0.5], &[]).unwrap();
    assert_eq!(utopk(&certain, 2), (vec![0, 1], 1.0));
    // Fewer tuples than k: the likeliest world's whole list, [0] at 0.7
    // over [] at 0.3.
    let short = RankedView::from_ranked_probs(&[0.7], &[]).unwrap();
    let (vector, probability) = utopk(&short, 3);
    assert_eq!(vector, vec![0]);
    assert!((probability - 0.7).abs() < 1e-12, "{probability}");
    // Mutually exclusive tuples never share a vector.
    let exclusive = RankedView::from_ranked_probs(&[0.45, 0.45, 0.3, 0.3], &[vec![0, 1]]).unwrap();
    let (vector, _) = utopk(&exclusive, 2);
    assert!(!(vector.contains(&0) && vector.contains(&1)), "{vector:?}");
}
