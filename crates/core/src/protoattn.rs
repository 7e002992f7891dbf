//! Prototypes Attentive Modeling — ProtoAttn (paper §VI, Algorithm 2).
//!
//! Instead of all-pairs attention between `l` segments (`O(l²)`), ProtoAttn
//! computes attention between the `k` *prototype queries* and the `l` segment
//! keys, then routes each segment to its assigned prototype's output through
//! the one-hot assignment matrix `A`:
//!
//! ```text
//! C_Q = C·W_E          (k × d)   prototype queries          (Eq. 14)
//! K   = P·W_K,  V = P·W_V  (l × d)
//! α   = softmax(C_Q·Kᵀ / √d)    (k × l)                     (Eq. 16)
//! out = A · (α · V)             (l × d)                     (Eq. 18)
//! ```
//!
//! Segments sharing a prototype receive identical attention summaries
//! (Eq. 19); total complexity is `O(k·l·d)` — linear in `l`.

use focus_autograd::{Graph, ParamStore, ParamVars, Var};
use focus_cluster::Prototypes;
use focus_nn::{CostReport, Linear};
use focus_tensor::Tensor;
use rand::Rng;

/// How input segments are mapped onto prototype buckets.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Assignment {
    /// One-hot nearest-prototype assignment (the paper's choice, Eq. 15).
    Hard,
    /// Softmax over negative composite distances with the given temperature —
    /// a design-ablation alternative benchmarked in `focus-bench`.
    Soft {
        /// Softmax temperature; smaller is closer to hard assignment.
        temperature: f32,
    },
}

/// A precomputed routing decision for ProtoAttn forwards.
///
/// Hard assignment is carried as a flat prototype-index vector: the forward
/// pass gathers each segment's prototype summary (`O(B·l·d)`) instead of
/// multiplying by a materialised `[B, l, k]` one-hot matrix
/// (`O(B·l·k·d)` plus a wasted `O(B·l·k·d)` backward for the constant
/// matrix's gradient). Soft assignment keeps the dense mixture matrix.
#[derive(Clone, Debug)]
pub enum RoutingPlan {
    /// One-hot routing as `indices[bi·l + i] = j` — the dense matrix is
    /// never built on this path.
    Hard {
        /// Assigned prototype per segment slot, `[B·l]`.
        indices: Vec<u32>,
        /// Batch size `B`.
        b: usize,
        /// Segments per batch element `l`.
        l: usize,
        /// Number of prototypes `k`.
        k: usize,
    },
    /// Dense soft-mixture routing.
    Soft {
        /// The mixture matrix `[B, l, k]`; rows are distributions.
        matrix: Tensor,
    },
}

impl RoutingPlan {
    /// The `(B, l, k)` routing dimensions.
    pub fn dims(&self) -> (usize, usize, usize) {
        match self {
            RoutingPlan::Hard { b, l, k, .. } => (*b, *l, *k),
            RoutingPlan::Soft { matrix } => {
                let d = matrix.dims();
                (d[0], d[1], d[2])
            }
        }
    }

    /// Materialises the dense `[B, l, k]` assignment matrix (diagnostics,
    /// the Fig. 13 dependency matrix, tests).
    pub fn to_matrix(&self) -> Tensor {
        match self {
            RoutingPlan::Hard { indices, b, l, k } => {
                focus_tensor::route::one_hot_matrix(indices, *b, *l, *k)
            }
            RoutingPlan::Soft { matrix } => matrix.clone(),
        }
    }

    /// The routing for the axes-swapped view `[l, B, ·]` used by the entity
    /// branch — a pure index permutation on the hard path.
    pub fn swap01(&self) -> RoutingPlan {
        match self {
            RoutingPlan::Hard { indices, b, l, k } => {
                let mut swapped = vec![0u32; indices.len()];
                for bi in 0..*b {
                    for i in 0..*l {
                        swapped[i * b + bi] = indices[bi * l + i];
                    }
                }
                RoutingPlan::Hard {
                    indices: swapped,
                    b: *l,
                    l: *b,
                    k: *k,
                }
            }
            RoutingPlan::Soft { matrix } => {
                let (b, l, k) = (matrix.dims()[0], matrix.dims()[1], matrix.dims()[2]);
                let mut out = Tensor::zeros(&[l, b, k]);
                for bi in 0..b {
                    for i in 0..l {
                        out.data_mut()[(i * b + bi) * k..(i * b + bi + 1) * k]
                            .copy_from_slice(&matrix.data()[(bi * l + i) * k..(bi * l + i + 1) * k]);
                    }
                }
                RoutingPlan::Soft { matrix: out }
            }
        }
    }
}

impl Assignment {
    /// Nearest-prototype index per segment slot of `segments: [B, l, p]`,
    /// flat `[B·l]` — the sparse form of the hard one-hot matrix, computed
    /// with the row-lane nearest-prototype kernel.
    pub fn indices(segments: &Tensor, prototypes: &Prototypes) -> Vec<u32> {
        let (b, l, p) = check_segments(segments, prototypes);
        prototypes
            .assign_all(&segments.reshape(&[b * l, p]))
            .into_iter()
            .map(|j| j as u32)
            .collect()
    }

    /// Builds the routing plan for `segments: [B, l, p]` against the offline
    /// prototypes (Algorithm 2, lines 1–4).
    ///
    /// This runs outside the autograd graph: routing is data, not a
    /// trainable quantity. Both variants evaluate Eq. 6 through the row-lane
    /// distance kernel rather than a per-pair scalar loop.
    pub fn plan(&self, segments: &Tensor, prototypes: &Prototypes) -> RoutingPlan {
        focus_trace::span!("model/routing");
        let (b, l, p) = check_segments(segments, prototypes);
        let k = prototypes.k();
        match self {
            Assignment::Hard => {
                focus_trace::counter_add("route/hard_plans", 1);
                RoutingPlan::Hard {
                    indices: Assignment::indices(segments, prototypes),
                    b,
                    l,
                    k,
                }
            }
            Assignment::Soft { temperature } => {
                focus_trace::counter_add("route/soft_plans", 1);
                let t = temperature.max(1e-4);
                let mut d = prototypes.distances(&segments.reshape(&[b * l, p]));
                for row in d.data_mut().chunks_exact_mut(k) {
                    for slot in row.iter_mut() {
                        *slot = -*slot / t;
                    }
                    // Shared max-subtract softmax kernel — one definition for
                    // every softmax in the workspace.
                    focus_tensor::fused::softmax_row(row);
                }
                d.reshape_in_place(&[b, l, k]);
                RoutingPlan::Soft { matrix: d }
            }
        }
    }

    /// The dense assignment matrix `A: [B, l, k]` — [`Assignment::plan`]
    /// materialised, kept for diagnostics and the dependency matrix.
    pub fn matrix(&self, segments: &Tensor, prototypes: &Prototypes) -> Tensor {
        self.plan(segments, prototypes).to_matrix()
    }
}

/// Validates `segments: [B, l, p]` against the prototype set, returning
/// `(B, l, p)`.
fn check_segments(segments: &Tensor, prototypes: &Prototypes) -> (usize, usize, usize) {
    assert_eq!(segments.rank(), 3, "segments must be [B, l, p]");
    let (b, l, p) = (segments.dims()[0], segments.dims()[1], segments.dims()[2]);
    assert_eq!(
        p,
        prototypes.segment_len(),
        "segment length {p} != prototype length {}",
        prototypes.segment_len()
    );
    (b, l, p)
}

/// The ProtoAttn block: learnable projections around a fixed prototype set.
pub struct ProtoAttn {
    w_e: Linear,
    w_k: Linear,
    w_v: Linear,
    prototypes: Tensor,
    kv_dim: usize,
    d: usize,
}

impl ProtoAttn {
    /// Builds a block for prototypes of shape `[k, p]`, embedding into
    /// feature width `d`. Keys/values are projected from raw segments
    /// (`kv_dim = p`, Eq. 14).
    pub fn new<R: Rng + ?Sized>(
        ps: &mut ParamStore,
        name: &str,
        prototypes: &Prototypes,
        d: usize,
        rng: &mut R,
    ) -> Self {
        let p = prototypes.segment_len();
        Self::with_kv_dim(ps, name, prototypes, p, d, rng)
    }

    /// Builds a block whose keys/values are projected from `kv_dim`-wide
    /// inputs instead of raw segments — used by the stacked layers of the
    /// multi-layer extractor extension, which attend over `d`-wide features.
    pub fn with_kv_dim<R: Rng + ?Sized>(
        ps: &mut ParamStore,
        name: &str,
        prototypes: &Prototypes,
        kv_dim: usize,
        d: usize,
        rng: &mut R,
    ) -> Self {
        let p = prototypes.segment_len();
        ProtoAttn {
            w_e: Linear::new_no_bias(ps, &format!("{name}.w_e"), p, d, rng),
            w_k: Linear::new_no_bias(ps, &format!("{name}.w_k"), kv_dim, d, rng),
            w_v: Linear::new_no_bias(ps, &format!("{name}.w_v"), kv_dim, d, rng),
            prototypes: prototypes.centers().clone(),
            kv_dim,
            d,
        }
    }

    /// Feature width `d`.
    pub fn dim(&self) -> usize {
        self.d
    }

    /// Number of prototypes `k`.
    pub fn k(&self) -> usize {
        self.prototypes.dims()[0]
    }

    /// Segment length `p`.
    pub fn segment_len(&self) -> usize {
        self.prototypes.dims()[1]
    }

    /// Applies ProtoAttn to `segments: [B, l, kv_dim]` under `routing`,
    /// returning `[B, l, d]` (Algorithm 2).
    ///
    /// Hard routing gathers each segment's prototype summary through the
    /// sparse `RouteOneHot` op; soft routing multiplies by the dense mixture
    /// matrix. The hard path is bitwise-identical to the dense one-hot
    /// `bmm` at any thread count (see `focus_tensor::route`).
    pub fn forward(&self, g: &mut Graph, pv: &ParamVars, segments: Var, routing: &RoutingPlan) -> Var {
        focus_trace::span!("model/protoattn");
        let dims = g.value(segments).dims().to_vec();
        if focus_trace::enabled() && dims.len() == 3 {
            focus_trace::counter_add("flops/protoattn_est", self.cost(dims[0], dims[1]).flops);
        }
        assert_eq!(dims.len(), 3, "ProtoAttn expects [B, l, kv_dim] inputs");
        assert_eq!(dims[2], self.kv_dim, "ProtoAttn input width mismatch");
        assert_eq!(
            routing.dims(),
            (dims[0], dims[1], self.k()),
            "routing plan must cover [B, l, k]"
        );

        let c = g.constant(self.prototypes.clone());
        let c_q = self.w_e.forward(g, pv, c); // [k, d]
        let keys = self.w_k.forward(g, pv, segments); // [B, l, d]
        let values = self.w_v.forward(g, pv, segments); // [B, l, d]
        let scores = g.matmul_broadcast_nt(c_q, keys); // [B, k, l]
        let scaled = g.scale(scores, 1.0 / (self.d as f32).sqrt());
        let alpha = g.softmax_last(scaled); // [B, k, l]
        let head = g.bmm(alpha, values); // [B, k, d]
        match routing {
            RoutingPlan::Hard { indices, l, .. } => g.route_one_hot(head, indices, *l),
            RoutingPlan::Soft { matrix } => {
                let a = g.constant(matrix.clone());
                g.bmm(a, head) // [B, l, d]
            }
        }
    }

    /// The learned long-range dependency matrix `A · α ∈ [B, l, l]` of
    /// Fig. 13: row `i` shows how much segment `i`'s summary attends to each
    /// other segment.
    pub fn dependency_matrix(
        &self,
        ps: &ParamStore,
        segments: &Tensor,
        assign: &Tensor,
    ) -> Tensor {
        let mut g = Graph::new();
        let pv = ps.register(&mut g);
        let seg_v = g.constant(segments.clone());
        let c = g.constant(self.prototypes.clone());
        let c_q = self.w_e.forward(&mut g, &pv, c);
        let keys = self.w_k.forward(&mut g, &pv, seg_v);
        let scores = g.matmul_broadcast_nt(c_q, keys);
        let scaled = g.scale(scores, 1.0 / (self.d as f32).sqrt());
        let alpha = g.softmax_last(scaled); // [B, k, l]
        let a_v = g.constant(assign.clone());
        let dep = g.bmm(a_v, alpha); // [B, l, l]
        g.value(dep).clone()
    }

    /// Analytic cost over a batch of `b` sequences of `l` segments
    /// (the `O(l·(k·d + d²) + k·d²)` of the paper's complexity analysis).
    pub fn cost(&self, b: usize, l: usize) -> CostReport {
        let k = self.k();
        let p = self.kv_dim;
        // Prototype queries are computed once per forward (shared over batch).
        let proto_proj = self.w_e.cost(k);
        let kv_proj = self.w_k.cost(b * l) + self.w_v.cost(b * l);
        // scores (k·l·d) and context (k·l·d) GEMMs, softmax, then sparse
        // one-hot routing: an O(l·d) gather instead of the dense
        // [l, k]·[k, d] bmm (and no wasted backward through a constant
        // one-hot). Live activations: the [b, k, l] score matrix and the
        // [b, l, d] routed output.
        let attn = CostReport {
            flops: 2 * (2 * b * k * l * self.d) as u64
                + 5 * (b * k * l) as u64
                + (b * l * self.d) as u64,
            params: 0,
            peak_mem_bytes: ((b * k * l).max(b * l * self.d) * 4) as u64,
        };
        // Assignment via the row-lane kernel: 2·(2·l·k·p) dot flops plus
        // centring/normalisation (~6·l·p) and the distance epilogue
        // (~4·l·k). Live scratch per segment: its raw and centred-normalised
        // copies in lane tiles (2·p f32), its f64 mean and norm plus a flag
        // (17 bytes) and its nearest index and distance (2 × 4 bytes) —
        // nothing of size k, and the [b, l, k] one-hot is never materialised
        // on the hard path.
        let assign = CostReport {
            flops: (4 * b * l * k * p + 6 * b * l * p + 4 * b * l * k) as u64,
            params: 0,
            peak_mem_bytes: (b * l * (2 * p * 4 + 17 + 2 * 4)) as u64,
        };
        proto_proj + kv_proj + attn + assign
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use focus_cluster::Objective;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn proto_fixture() -> Prototypes {
        // Two orthogonal "shapes": rising ramp and falling ramp.
        Prototypes::from_centers(
            Tensor::from_vec(vec![-1.0, -0.33, 0.33, 1.0, 1.0, 0.33, -0.33, -1.0], &[2, 4]),
            Objective::rec_corr(0.2),
        )
    }

    #[test]
    fn hard_assignment_is_one_hot_and_correct() {
        let protos = proto_fixture();
        // Segment 0 rises, segment 1 falls.
        let segs = Tensor::from_vec(
            vec![-2.0, -0.7, 0.7, 2.0, 0.5, 0.2, -0.2, -0.5],
            &[1, 2, 4],
        );
        let a = Assignment::Hard.matrix(&segs, &protos);
        assert_eq!(a.dims(), &[1, 2, 2]);
        assert_eq!(a.at3(0, 0, 0), 1.0);
        assert_eq!(a.at3(0, 0, 1), 0.0);
        assert_eq!(a.at3(0, 1, 1), 1.0);
    }

    #[test]
    fn soft_assignment_rows_are_distributions() {
        let protos = proto_fixture();
        let segs = Tensor::from_vec(
            vec![-2.0, -0.7, 0.7, 2.0, 0.5, 0.2, -0.2, -0.5],
            &[1, 2, 4],
        );
        let a = Assignment::Soft { temperature: 1.0 }.matrix(&segs, &protos);
        for i in 0..2 {
            let sum: f32 = (0..2).map(|j| a.at3(0, i, j)).sum();
            assert!((sum - 1.0).abs() < 1e-5);
        }
        // The rising segment must still prefer the rising prototype.
        assert!(a.at3(0, 0, 0) > a.at3(0, 0, 1));
    }

    #[test]
    fn forward_shape_and_eq19_property() {
        // Segments assigned to the same prototype get identical outputs
        // (Eq. 19).
        let mut rng = StdRng::seed_from_u64(5);
        let protos = proto_fixture();
        let mut ps = ParamStore::new();
        let pa = ProtoAttn::new(&mut ps, "pa", &protos, 8, &mut rng);
        // Three segments; 0 and 2 are both rising → same bucket.
        let segs = Tensor::from_vec(
            vec![
                -2.0, -0.7, 0.7, 2.0, // rising
                0.5, 0.2, -0.2, -0.5, // falling
                -1.0, -0.3, 0.3, 1.0, // rising
            ],
            &[1, 3, 4],
        );
        let plan = Assignment::Hard.plan(&segs, &protos);
        let mut g = Graph::new();
        let pv = ps.register(&mut g);
        let seg_v = g.constant(segs);
        let out = pa.forward(&mut g, &pv, seg_v, &plan);
        assert_eq!(g.value(out).dims(), &[1, 3, 8]);
        let row0: Vec<f32> = (0..8).map(|j| g.value(out).at3(0, 0, j)).collect();
        let row2: Vec<f32> = (0..8).map(|j| g.value(out).at3(0, 2, j)).collect();
        assert_eq!(row0, row2, "same-bucket segments must share outputs");
    }

    #[test]
    fn gradients_flow_to_all_projections() {
        let mut rng = StdRng::seed_from_u64(6);
        let protos = proto_fixture();
        let mut ps = ParamStore::new();
        let pa = ProtoAttn::new(&mut ps, "pa", &protos, 4, &mut rng);
        let segs = Tensor::randn(&[2, 3, 4], 1.0, &mut rng);
        let plan = Assignment::Hard.plan(&segs, &protos);
        let mut g = Graph::new();
        let pv = ps.register(&mut g);
        let seg_v = g.constant(segs);
        let out = pa.forward(&mut g, &pv, seg_v, &plan);
        let sq = g.mul(out, out);
        let loss = g.mean_all(sq);
        g.backward(loss);
        // All three projection weights must receive gradients.
        assert!(ps.grad_norm(&g, &pv) > 0.0);
        for (id, name, _) in ps.iter() {
            let grad = g.grad(pv.var(id));
            assert!(grad.is_some(), "{name} has no gradient");
        }
    }

    #[test]
    fn hard_plan_indices_agree_with_dense_matrix() {
        let protos = proto_fixture();
        let mut rng = StdRng::seed_from_u64(11);
        let segs = Tensor::randn(&[3, 5, 4], 1.0, &mut rng);
        let plan = Assignment::Hard.plan(&segs, &protos);
        let dense = plan.to_matrix();
        let RoutingPlan::Hard { ref indices, b, l, k } = plan else {
            panic!("hard assignment must produce a Hard plan");
        };
        assert_eq!((b, l, k), (3, 5, 2));
        assert_eq!(indices.len(), 15);
        for bi in 0..3 {
            for i in 0..5 {
                for j in 0..2 {
                    let expect = if indices[bi * 5 + i] as usize == j { 1.0 } else { 0.0 };
                    assert_eq!(dense.at3(bi, i, j), expect);
                }
            }
        }
        // swap01 permutes indices exactly like a dense axis swap.
        let swapped = plan.swap01();
        let RoutingPlan::Hard { indices: ref si, b: sb, l: sl, .. } = swapped else {
            panic!("swap01 must stay hard");
        };
        assert_eq!((sb, sl), (5, 3));
        for bi in 0..3 {
            for i in 0..5 {
                assert_eq!(si[i * 3 + bi], indices[bi * 5 + i]);
            }
        }
    }

    #[test]
    fn sparse_routing_matches_dense_bmm_forward_and_backward() {
        // The hard path (RouteOneHot gather) must be bitwise-identical to
        // routing through the materialised one-hot matrix — outputs and
        // parameter gradients alike.
        let mut rng = StdRng::seed_from_u64(12);
        let protos = proto_fixture();
        let mut ps = ParamStore::new();
        let pa = ProtoAttn::new(&mut ps, "pa", &protos, 8, &mut rng);
        let segs = Tensor::randn(&[2, 6, 4], 1.0, &mut rng);
        let hard = Assignment::Hard.plan(&segs, &protos);
        let dense = RoutingPlan::Soft { matrix: hard.to_matrix() };

        let run = |routing: &RoutingPlan| {
            let mut g = Graph::new();
            let pv = ps.register(&mut g);
            let seg_v = g.constant(segs.clone());
            let out = pa.forward(&mut g, &pv, seg_v, routing);
            let sq = g.mul(out, out);
            let loss = g.mean_all(sq);
            g.backward(loss);
            let grads: Vec<Vec<f32>> = ps
                .iter()
                .map(|(id, name, _)| {
                    g.grad(pv.var(id))
                        .unwrap_or_else(|| panic!("{name} has no gradient"))
                        .data()
                        .to_vec()
                })
                .collect();
            (g.value(out).data().to_vec(), grads)
        };
        let (out_sparse, grads_sparse) = run(&hard);
        let (out_dense, grads_dense) = run(&dense);
        assert_eq!(out_sparse, out_dense, "forward diverged");
        assert_eq!(grads_sparse, grads_dense, "parameter gradients diverged");
    }

    #[test]
    fn dependency_matrix_rows_are_distributions() {
        let mut rng = StdRng::seed_from_u64(7);
        let protos = proto_fixture();
        let mut ps = ParamStore::new();
        let pa = ProtoAttn::new(&mut ps, "pa", &protos, 4, &mut rng);
        let segs = Tensor::randn(&[1, 5, 4], 1.0, &mut rng);
        let a = Assignment::Hard.matrix(&segs, &protos);
        let dep = pa.dependency_matrix(&ps, &segs, &a);
        assert_eq!(dep.dims(), &[1, 5, 5]);
        for i in 0..5 {
            let sum: f32 = (0..5).map(|j| dep.at3(0, i, j)).sum();
            assert!((sum - 1.0).abs() < 1e-4, "row {i} sums to {sum}");
        }
    }

    #[test]
    fn cost_is_linear_in_sequence_length() {
        let mut rng = StdRng::seed_from_u64(8);
        let protos = proto_fixture();
        let mut ps = ParamStore::new();
        let pa = ProtoAttn::new(&mut ps, "pa", &protos, 16, &mut rng);
        let c1 = pa.cost(1, 64);
        let c2 = pa.cost(1, 128);
        let ratio = c2.flops as f64 / c1.flops as f64;
        assert!(
            (ratio - 2.0).abs() < 0.2,
            "doubling l should ~double FLOPs, ratio {ratio}"
        );
    }
}
