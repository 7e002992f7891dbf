//! Property-based tests for the clustering engine's invariants.

use focus_cluster::{segment_matrix, ClusterConfig, Objective, ProtoUpdate, Prototypes};
use focus_tensor::Tensor;
use proptest::prelude::*;
use rand::SeedableRng;

fn segments(n: usize, p: usize) -> impl Strategy<Value = Tensor> {
    prop::collection::vec(-5.0f32..5.0, n * p).prop_map(move |v| Tensor::from_vec(v, &[n, p]))
}

/// Rows that may be exactly constant (wide magnitude range, including values
/// whose f64 mean rounds), near-constant (tiny noise on a base — at large
/// bases the noise vanishes below the f32 ulp, at small bases it survives),
/// or ordinary random rows. Exercises the zero-variance guard on both sides.
fn mixed_rows(n: usize, p: usize) -> impl Strategy<Value = Tensor> {
    let row = prop_oneof![
        (-1.0e8f32..1.0e8).prop_map(move |v| vec![v; p]),
        ((-1.0e4f32..1.0e4), prop::collection::vec(-1.0e-6f32..1.0e-6, p))
            .prop_map(|(base, noise)| noise.iter().map(|&e| base + e).collect()),
        prop::collection::vec(-5.0f32..5.0, p),
    ];
    prop::collection::vec(row, n).prop_map(move |rows| Tensor::from_vec(rows.concat(), &[n, p]))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn assignment_is_nearest_under_objective(segs in segments(24, 6), alpha in 0.0f32..1.0) {
        let objective = if alpha < 0.05 { Objective::RecOnly } else { Objective::rec_corr(alpha) };
        let protos = ClusterConfig::new(4, 6)
            .with_objective(objective)
            .with_max_iters(8)
            .fit(&segs, 1);
        for i in 0..24 {
            let seg = segs.row(i);
            let assigned = protos.assign(seg);
            let d_assigned = objective.distance(seg, protos.centers().row(assigned));
            for j in 0..4 {
                let d = objective.distance(seg, protos.centers().row(j));
                prop_assert!(
                    d_assigned <= d + 1e-4,
                    "segment {i}: assigned bucket {assigned} at {d_assigned} but bucket {j} at {d}"
                );
            }
        }
    }

    #[test]
    fn prototypes_are_finite_and_shaped(segs in segments(16, 8)) {
        let protos = ClusterConfig::new(3, 8).with_max_iters(6).fit(&segs, 2);
        prop_assert_eq!(protos.centers().dims(), &[3, 8]);
        prop_assert!(protos.centers().all_finite());
    }

    #[test]
    fn every_bucket_is_used_when_data_has_spread(shift in 1.0f32..5.0) {
        // Three well-separated constant levels: every prototype must attract
        // at least one segment (the empty-bucket reseeding invariant).
        let mut data = Vec::new();
        for c in 0..3 {
            for _ in 0..10 {
                data.extend(std::iter::repeat_n(c as f32 * shift, 4));
            }
        }
        let segs = Tensor::from_vec(data, &[30, 4]);
        let protos = ClusterConfig::new(3, 4)
            .with_objective(Objective::RecOnly)
            .with_update(ProtoUpdate::ClosedFormMean)
            .with_max_iters(10)
            .fit(&segs, 3);
        let mut used = [false; 3];
        for a in protos.assign_all(&segs) {
            used[a] = true;
        }
        prop_assert!(used.iter().all(|&u| u), "unused bucket: {used:?}");
    }

    #[test]
    fn persistence_round_trip(segs in segments(12, 5)) {
        let protos = ClusterConfig::new(2, 5).with_max_iters(4).fit(&segs, 4);
        let restored = focus_cluster::Prototypes::from_text(&protos.to_text()).unwrap();
        prop_assert_eq!(protos.centers().data(), restored.centers().data());
        // Assignments must be identical after the round trip.
        for i in 0..12 {
            prop_assert_eq!(protos.assign(segs.row(i)), restored.assign(segs.row(i)));
        }
    }

    #[test]
    fn segment_matrix_row_count(entities in 1usize..5, t in 8usize..40, p in 2usize..8) {
        let series = Tensor::zeros(&[entities, t]);
        let segs = segment_matrix(&series, p);
        prop_assert_eq!(segs.dims(), &[entities * (t / p), p]);
    }

    #[test]
    fn assign_all_and_fit_bitwise_match_serial(segs in segments(900, 6), seed in 0u64..1 << 32) {
        // Parallel assignment sweeps must be indistinguishable from serial:
        // same bucket per segment from `assign_all`, and — because the fit
        // loop's assignment step and the k-means++ init also run on the pool
        // — bit-for-bit identical fitted prototypes at every thread count.
        // (900 segments is past the sweep's parallel grain, so threads > 1
        // genuinely engage, and not a whole number of 16-row lane tiles, so
        // the last tile is partial.)
        let cfg = ClusterConfig::new(5, 6).with_max_iters(4);
        // Serialise the process-global thread override against other tests.
        let _g = focus_tensor::par::threads_guard();
        focus_tensor::par::set_threads(1);
        let protos_serial = cfg.fit(&segs, seed);
        let serial: Vec<usize> = (0..segs.dims()[0]).map(|i| protos_serial.assign(segs.row(i))).collect();
        for threads in [2usize, 4] {
            focus_tensor::par::set_threads(threads);
            let protos = cfg.fit(&segs, seed);
            prop_assert_eq!(
                protos.centers().data(), protos_serial.centers().data(),
                "fit diverged at {} threads", threads
            );
            prop_assert_eq!(&protos_serial.assign_all(&segs), &serial, "assign_all diverged at {} threads", threads);
        }
        focus_tensor::par::set_threads(0);
    }

    #[test]
    fn gemm_distances_match_scalar_oracle(
        segs in segments(37, 9),
        centers in segments(5, 9),
        alpha in 0.0f32..1.0,
    ) {
        // The row-lane distance kernel (‖x‖² − 2x·c + ‖c‖² plus the
        // normalised-dot correlation term, f32 dots) must agree with the
        // scalar per-pair oracle to f32 roundoff, and pick the same argmin
        // whenever the scalar best/second-best margin exceeds that roundoff.
        let objective = if alpha < 0.05 { Objective::RecOnly } else { Objective::rec_corr(alpha) };
        let protos = Prototypes::from_centers(centers, objective);
        let d = protos.distances(&segs);
        let assigned = protos.assign_all(&segs);
        for (i, &assigned_i) in assigned.iter().enumerate() {
            let mut scalar = [0.0f32; 5];
            for (j, s) in scalar.iter_mut().enumerate() {
                *s = objective.distance(segs.row(i), protos.centers().row(j));
            }
            let mut tol_max = 0.0f32;
            for (j, &s) in scalar.iter().enumerate() {
                let tol = 1e-4 * s.abs().max(1.0);
                tol_max = tol_max.max(tol);
                prop_assert!(
                    (d.at2(i, j) - s).abs() <= tol,
                    "d[{i},{j}] kernel {} vs scalar {s}", d.at2(i, j)
                );
            }
            let best = (0..5).min_by(|&a, &b| scalar[a].partial_cmp(&scalar[b]).unwrap()).unwrap();
            let runner_up = (0..5)
                .filter(|&j| j != best)
                .map(|j| scalar[j] - scalar[best])
                .fold(f32::INFINITY, f32::min);
            if runner_up > 2.0 * tol_max {
                prop_assert_eq!(
                    assigned_i, best,
                    "row {} (margin {}): kernel argmin diverged from scalar", i, runner_up
                );
            }
        }
    }

    #[test]
    fn gemm_and_scalar_sweeps_agree_on_separated_data(shift in 2.0f32..6.0, seed in 0u64..1 << 16) {
        // On data with real cluster structure (no engineered near-ties) the
        // lane kernel and the scalar oracle sweep must assign identically.
        let mut data = Vec::new();
        for c in 0..4 {
            for s in 0..24 {
                for t in 0..8 {
                    let wobble = ((seed as f32 + (s * 8 + t) as f32) * 0.37).sin() * 0.3;
                    data.push(c as f32 * shift + wobble);
                }
            }
        }
        let segs = Tensor::from_vec(data, &[96, 8]);
        let protos = ClusterConfig::new(4, 8).with_max_iters(6).fit(&segs, seed);
        prop_assert_eq!(protos.assign_all(&segs), protos.assign_all_scalar(&segs));
    }

    #[test]
    fn constant_and_near_constant_rows_assign_consistently(
        segs in mixed_rows(40, 8),
        centers in mixed_rows(6, 8),
        alpha in 0.0f32..1.0,
    ) {
        // Constant (zero-variance) rows previously slipped past the
        // normalisation guard at large magnitudes, feeding noise-only unit
        // vectors into the correlation dot. Every distance must now be
        // finite and agree with the scalar oracle to f32 roundoff of the
        // *cancelled* terms (‖x‖² and ‖c‖², not the small result), and the
        // two sweeps must assign identically wherever the scalar margin
        // exceeds that roundoff.
        let objective = if alpha < 0.05 { Objective::RecOnly } else { Objective::rec_corr(alpha) };
        let protos = Prototypes::from_centers(centers, objective);
        let d = protos.distances(&segs);
        let assigned = protos.assign_all(&segs);
        let scalar_assigned = protos.assign_all_scalar(&segs);
        let sq = |row: &[f32]| row.iter().map(|&v| (v as f64) * (v as f64)).sum::<f64>();
        for i in 0..40 {
            let x2 = sq(segs.row(i));
            let mut scalar = [0.0f32; 6];
            let mut tol_max = 0.0f32;
            for (j, s) in scalar.iter_mut().enumerate() {
                *s = objective.distance(segs.row(i), protos.centers().row(j));
                prop_assert!(s.is_finite(), "scalar d[{}, {}] not finite: {}", i, j, s);
                let g = d.at2(i, j);
                prop_assert!(g.is_finite(), "kernel d[{}, {}] not finite: {}", i, j, g);
                let tol = 1e-4 * ((x2 + sq(protos.centers().row(j))) as f32).max(1.0);
                prop_assert!(
                    (g - *s).abs() <= tol,
                    "d[{}, {}]: kernel {} vs scalar {} (tol {})", i, j, g, s, tol
                );
                tol_max = tol_max.max(tol);
            }
            let best = (0..6).min_by(|&a, &b| scalar[a].partial_cmp(&scalar[b]).expect("finite")).expect("non-empty");
            let margin = (0..6)
                .filter(|&j| j != best)
                .map(|j| scalar[j] - scalar[best])
                .fold(f32::INFINITY, f32::min);
            if margin > 2.0 * tol_max {
                prop_assert_eq!(assigned[i], best, "row {} (margin {}): kernel argmin diverged", i, margin);
                prop_assert_eq!(scalar_assigned[i], best, "row {} (margin {}): scalar argmin diverged", i, margin);
            }
        }
    }

    #[test]
    fn duplicate_prototypes_tie_break_to_lowest_index(segs in segments(20, 6)) {
        // Bit-identical distance columns (duplicated centers) must resolve to
        // the lowest index on both the lane kernel and the scalar path —
        // five copies span one four-center pass plus a remainder center.
        let stacked = segs.row(0).repeat(5);
        let protos = Prototypes::from_centers(Tensor::from_vec(stacked, &[5, 6]), Objective::rec_corr(0.2));
        let lanes = protos.assign_all(&segs);
        let scalar = protos.assign_all_scalar(&segs);
        prop_assert!(lanes.iter().all(|&j| j == 0), "lane kernel broke the tie upward: {lanes:?}");
        prop_assert_eq!(lanes, scalar);
    }

    #[test]
    fn assign_all_is_the_first_minimum_of_distances(
        n in 1usize..40,
        k in 1usize..10,
        p in 1usize..12,
        alpha in 0.0f32..1.5,
        seed in 0u64..1 << 16,
    ) {
        // Both kernel entry points compute the same lane distances, so the
        // assignment must be exactly the first strict minimum of each row of
        // the distance matrix, for any row count on or off the tile grid.
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let segs = Tensor::randn(&[n, p], 1.0, &mut rng);
        let centers = Tensor::randn(&[k, p], 1.0, &mut rng);
        let objective = if alpha < 0.05 { Objective::RecOnly } else { Objective::rec_corr(alpha) };
        let protos = Prototypes::from_centers(centers, objective);
        let d = protos.distances(&segs);
        let assigned = protos.assign_all(&segs);
        for (i, &a) in assigned.iter().enumerate() {
            let mut best = (0usize, f32::INFINITY);
            for j in 0..k {
                if d.at2(i, j) < best.1 {
                    best = (j, d.at2(i, j));
                }
            }
            prop_assert_eq!(a, best.0, "row {} of {}", i, n);
            prop_assert_eq!(protos.assign(segs.row(i)), a, "single-segment assign of row {}", i);
        }
    }

    #[test]
    fn reconstruction_assigns_like_single_segments(segs in segments(24, 6)) {
        // `reconstruct_row` assigns all of a row's segments in one batch;
        // each must be exactly the single-segment assignment.
        let protos = ClusterConfig::new(3, 6).with_max_iters(4).fit(&segs, 6);
        let row = segs.data();
        let report = focus_cluster::reconstruct_row(row, &protos);
        let single: Vec<usize> = row.chunks_exact(6).map(|seg| protos.assign(seg)).collect();
        prop_assert_eq!(report.assignments, single);
    }
}

#[test]
fn nan_segments_keep_the_first_prototype() {
    // Under a correlation objective every distance of a NaN segment is NaN,
    // which never wins the strict `<` scan: the segment stays on bucket 0,
    // on the lane kernel and the scalar oracle alike.
    let mut data: Vec<f32> = (0..20 * 4).map(|v| (v as f32 * 0.37).sin()).collect();
    data[7 * 4 + 1] = f32::NAN;
    data[19 * 4..].fill(f32::NAN);
    let segs = Tensor::from_vec(data, &[20, 4]);
    let centers = Tensor::from_vec((0..3 * 4).map(|v| (v as f32 * 0.91).cos() + 0.5).collect(), &[3, 4]);
    let protos = Prototypes::from_centers(centers, Objective::rec_corr(0.2));
    let lanes = protos.assign_all(&segs);
    assert_eq!(lanes[7], 0);
    assert_eq!(lanes[19], 0);
    assert_eq!(lanes, protos.assign_all_scalar(&segs));
}
