//! Swap layers, routing schedules, verification and depth compaction.

use qroute_perm::Permutation;
use qroute_topology::Graph;

/// One layer of vertex-disjoint SWAPs — a matching of the coupling graph —
/// executable in a single time step.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SwapLayer {
    /// The disjoint swaps `(u, v)` of this layer.
    pub swaps: Vec<(usize, usize)>,
}

impl SwapLayer {
    /// A layer from a list of swaps (disjointness is the caller's
    /// responsibility; see [`RoutingSchedule::validate_on`]).
    pub fn new(swaps: Vec<(usize, usize)>) -> SwapLayer {
        SwapLayer { swaps }
    }

    /// Number of swaps in the layer.
    pub fn len(&self) -> usize {
        self.swaps.len()
    }

    /// `true` when the layer contains no swaps.
    pub fn is_empty(&self) -> bool {
        self.swaps.is_empty()
    }
}

/// Errors from [`RoutingSchedule::validate_on`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScheduleError {
    /// A swap used a pair that is not an edge of the coupling graph.
    NotAnEdge {
        /// Index of the offending layer.
        layer: usize,
        /// The offending pair.
        pair: (usize, usize),
    },
    /// Two swaps in one layer share a vertex.
    NotAMatching {
        /// Index of the offending layer.
        layer: usize,
        /// The shared vertex.
        vertex: usize,
    },
}

impl std::fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScheduleError::NotAnEdge { layer, pair } => {
                write!(f, "layer {layer}: pair {pair:?} is not a coupling edge")
            }
            ScheduleError::NotAMatching { layer, vertex } => {
                write!(f, "layer {layer}: vertex {vertex} used by two swaps")
            }
        }
    }
}

impl std::error::Error for ScheduleError {}

/// A routing schedule: an ordered sequence of swap layers.
///
/// Token semantics: vertices hold tokens; initially the token at vertex `v`
/// is labeled `v`. Applying a layer exchanges the tokens on each swapped
/// pair. The schedule *realizes* `π` when the token labeled `v` ends at
/// vertex `π(v)` for every `v`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RoutingSchedule {
    /// The layers, in execution order.
    pub layers: Vec<SwapLayer>,
}

impl RoutingSchedule {
    /// The empty schedule (realizes the identity).
    pub fn empty() -> RoutingSchedule {
        RoutingSchedule { layers: Vec::new() }
    }

    /// Wrap a layer sequence.
    pub fn from_layers(layers: Vec<SwapLayer>) -> RoutingSchedule {
        RoutingSchedule { layers }
    }

    /// Number of layers — the depth overhead added to the circuit.
    pub fn depth(&self) -> usize {
        self.layers.len()
    }

    /// Total number of SWAP gates — the size overhead.
    pub fn size(&self) -> usize {
        self.layers.iter().map(SwapLayer::len).sum()
    }

    /// Append a layer (dropped silently when empty).
    pub fn push_layer(&mut self, layer: SwapLayer) {
        if !layer.is_empty() {
            self.layers.push(layer);
        }
    }

    /// Append all layers of `other` after `self`'s.
    pub fn extend(&mut self, other: RoutingSchedule) {
        for layer in other.layers {
            self.push_layer(layer);
        }
    }

    /// Iterate over all swaps in execution order (layer by layer).
    pub fn swaps(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.layers.iter().flat_map(|l| l.swaps.iter().copied())
    }

    /// Apply the schedule to a token configuration `at` (`at[v]` = token at
    /// vertex `v`).
    ///
    /// # Panics
    /// Panics when a swap endpoint is out of range.
    pub fn apply_to(&self, at: &mut [usize]) {
        for layer in &self.layers {
            for &(u, v) in &layer.swaps {
                at.swap(u, v);
            }
        }
    }

    /// The permutation realized by the schedule on `n` vertices: token `v`
    /// ends at `realized.apply(v)`.
    pub fn realized_permutation(&self, n: usize) -> Permutation {
        let mut at: Vec<usize> = (0..n).collect();
        self.apply_to(&mut at);
        // at[pos] = token  =>  token `t` is at `pos`, i.e. realized(t) = pos.
        let mut map = vec![0usize; n];
        for (pos, &token) in at.iter().enumerate() {
            map[token] = pos;
        }
        Permutation::from_vec_unchecked(map)
    }

    /// `true` iff the schedule moves the token starting at `v` to `π(v)`
    /// for every vertex.
    pub fn realizes(&self, pi: &Permutation) -> bool {
        self.realized_permutation(pi.len()) == *pi
    }

    /// Check that every layer is a matching of `graph` (disjoint swaps over
    /// actual coupling edges).
    pub fn validate_on(&self, graph: &Graph) -> Result<(), ScheduleError> {
        let mut used = vec![usize::MAX; graph.len()];
        for (k, layer) in self.layers.iter().enumerate() {
            for &(u, v) in &layer.swaps {
                if !graph.has_edge(u, v) {
                    return Err(ScheduleError::NotAnEdge { layer: k, pair: (u, v) });
                }
                for w in [u, v] {
                    if used[w] == k {
                        return Err(ScheduleError::NotAMatching { layer: k, vertex: w });
                    }
                    used[w] = k;
                }
            }
        }
        Ok(())
    }

    /// Greedy ASAP depth compaction: every swap is rescheduled to the
    /// earliest layer after the last layer touching either endpoint.
    ///
    /// Per-vertex swap order is preserved, and vertex-disjoint swaps
    /// commute, so the compacted schedule realizes the same permutation
    /// (and the same circuit semantics when swaps carry gates). Depth never
    /// increases.
    pub fn compact(&self, n: usize) -> RoutingSchedule {
        RoutingSchedule::compact_swaps(n, self.swaps())
    }

    /// The greedy ASAP pass over a bare swap sequence: the single shared
    /// implementation behind [`RoutingSchedule::compact`] and the
    /// borrow-based `AtsOutcome::parallelized` (which skips building an
    /// intermediate one-layer schedule).
    pub fn compact_swaps(
        n: usize,
        swaps: impl IntoIterator<Item = (usize, usize)>,
    ) -> RoutingSchedule {
        let mut avail = vec![0usize; n];
        let mut layers: Vec<SwapLayer> = Vec::new();
        for (u, v) in swaps {
            let t = avail[u].max(avail[v]);
            if t == layers.len() {
                layers.push(SwapLayer::default());
            }
            layers[t].swaps.push((u, v));
            avail[u] = t + 1;
            avail[v] = t + 1;
        }
        RoutingSchedule { layers }
    }

    /// Fuse another schedule after this one and compact the result.
    pub fn then(mut self, other: RoutingSchedule, n: usize) -> RoutingSchedule {
        self.extend(other);
        self.compact(n)
    }

    /// The schedule with every swap endpoint mapped through `f`, layer
    /// structure untouched — depth and size are invariant.
    ///
    /// When `f` is injective and maps coupling edges of the source graph
    /// to coupling edges of the target graph (a graph embedding — e.g. a
    /// [`qroute_topology::GridSymmetry`] vertex map, or a translated
    /// block placement), validity is preserved, and the relabeled
    /// schedule realizes the conjugated permutation `f ∘ π ∘ f⁻¹`. This
    /// is how the routing service replays cached canonical schedules back
    /// into a job's original frame.
    pub fn relabeled(&self, mut f: impl FnMut(usize) -> usize) -> RoutingSchedule {
        RoutingSchedule {
            layers: self
                .layers
                .iter()
                .map(|layer| {
                    SwapLayer::new(layer.swaps.iter().map(|&(u, v)| (f(u), f(v))).collect())
                })
                .collect(),
        }
    }
}

/// A [`RoutingSchedule`] packed into one allocation of `u32` words,
/// laid out as `[depth, end_0, …, end_{depth-1}, u0, v0, u1, v1, …]`,
/// where `end_k` counts the swaps in layers `0..=k`. That is 8 bytes per
/// swap plus 4 per layer, against 16 per swap plus a `Vec` header per
/// layer unpacked — the form the routing service keeps in its cache.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackedSchedule {
    words: Box<[u32]>,
}

impl PackedSchedule {
    /// Pack `schedule`.
    ///
    /// # Panics
    /// Panics when a vertex id or the swap count exceeds `u32::MAX`.
    pub fn pack(schedule: &RoutingSchedule) -> PackedSchedule {
        fn word(x: usize) -> u32 {
            u32::try_from(x).expect("schedule does not fit u32 words")
        }
        let depth = schedule.depth();
        let mut words = Vec::with_capacity(1 + depth + 2 * schedule.size());
        words.push(word(depth));
        let mut end = 0;
        for layer in &schedule.layers {
            end += layer.len();
            words.push(word(end));
        }
        for (u, v) in schedule.swaps() {
            words.extend([word(u), word(v)]);
        }
        PackedSchedule { words: words.into_boxed_slice() }
    }

    /// Number of layers, as [`RoutingSchedule::depth`].
    pub fn depth(&self) -> usize {
        self.words[0] as usize
    }

    /// Total number of swaps, as [`RoutingSchedule::size`].
    pub fn size(&self) -> usize {
        (self.words.len() - 1 - self.depth()) / 2
    }

    /// Unpack with every swap endpoint mapped through `f`, as
    /// [`RoutingSchedule::relabeled`] does; `relabeled(|v| v)` gives back
    /// the packed schedule.
    pub fn relabeled(&self, mut f: impl FnMut(usize) -> usize) -> RoutingSchedule {
        let (ends, swaps) = self.words[1..].split_at(self.depth());
        let mut start = 0;
        let layers = ends
            .iter()
            .map(|&end| {
                let end = end as usize;
                let layer = swaps[2 * start..2 * end]
                    .chunks_exact(2)
                    .map(|uv| (f(uv[0] as usize), f(uv[1] as usize)))
                    .collect();
                start = end;
                SwapLayer::new(layer)
            })
            .collect();
        RoutingSchedule { layers }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qroute_topology::Grid;

    fn layer(swaps: &[(usize, usize)]) -> SwapLayer {
        SwapLayer::new(swaps.to_vec())
    }

    #[test]
    fn empty_schedule_is_identity() {
        let s = RoutingSchedule::empty();
        assert_eq!(s.depth(), 0);
        assert_eq!(s.size(), 0);
        assert!(s.realizes(&Permutation::identity(5)));
    }

    #[test]
    fn single_swap_realization() {
        let mut s = RoutingSchedule::empty();
        s.push_layer(layer(&[(0, 1)]));
        let p = Permutation::from_vec(vec![1, 0, 2]).unwrap();
        assert!(s.realizes(&p));
        assert!(!s.realizes(&Permutation::identity(3)));
    }

    #[test]
    fn three_swaps_cycle() {
        // Swaps (0,1) then (1,2): token0 -> 1 -> 2? Let's check:
        // after (0,1): at = [1,0,2]; after (1,2): at = [1,2,0].
        // token 0 at vertex 2, token 1 at vertex 0, token 2 at vertex 1.
        let mut s = RoutingSchedule::empty();
        s.push_layer(layer(&[(0, 1)]));
        s.push_layer(layer(&[(1, 2)]));
        let realized = s.realized_permutation(3);
        assert_eq!(realized.as_slice(), &[2, 0, 1]);
    }

    #[test]
    fn empty_layers_are_dropped() {
        let mut s = RoutingSchedule::empty();
        s.push_layer(layer(&[]));
        s.push_layer(layer(&[(0, 1)]));
        s.push_layer(layer(&[]));
        assert_eq!(s.depth(), 1);
    }

    #[test]
    fn validate_catches_non_edges_and_overlaps() {
        let g = Grid::new(2, 2).to_graph(); // edges: (0,1),(0,2),(1,3),(2,3)
        let ok = RoutingSchedule::from_layers(vec![layer(&[(0, 1), (2, 3)])]);
        assert!(ok.validate_on(&g).is_ok());

        let bad_edge = RoutingSchedule::from_layers(vec![layer(&[(0, 3)])]);
        assert_eq!(
            bad_edge.validate_on(&g),
            Err(ScheduleError::NotAnEdge { layer: 0, pair: (0, 3) })
        );

        let overlap = RoutingSchedule::from_layers(vec![layer(&[(0, 1), (1, 3)])]);
        assert_eq!(
            overlap.validate_on(&g),
            Err(ScheduleError::NotAMatching { layer: 0, vertex: 1 })
        );
    }

    #[test]
    fn compact_preserves_semantics_and_reduces_depth() {
        // Serial swaps on disjoint pairs should compact to depth 1.
        let s = RoutingSchedule::from_layers(vec![
            layer(&[(0, 1)]),
            layer(&[(2, 3)]),
            layer(&[(4, 5)]),
        ]);
        let c = s.compact(6);
        assert_eq!(c.depth(), 1);
        assert_eq!(c.size(), 3);
        assert_eq!(s.realized_permutation(6), c.realized_permutation(6));
    }

    #[test]
    fn compact_respects_dependencies() {
        // (0,1) then (1,2) share vertex 1: cannot be merged.
        let s = RoutingSchedule::from_layers(vec![layer(&[(0, 1)]), layer(&[(1, 2)])]);
        let c = s.compact(3);
        assert_eq!(c.depth(), 2);
        assert_eq!(s.realized_permutation(3), c.realized_permutation(3));
    }

    #[test]
    fn compact_never_increases_depth() {
        let s = RoutingSchedule::from_layers(vec![
            layer(&[(0, 1), (2, 3)]),
            layer(&[(1, 2)]),
            layer(&[(0, 1), (2, 3)]),
        ]);
        let c = s.compact(4);
        assert!(c.depth() <= s.depth());
        assert_eq!(s.realized_permutation(4), c.realized_permutation(4));
    }

    #[test]
    fn then_concatenates_and_compacts() {
        let a = RoutingSchedule::from_layers(vec![layer(&[(0, 1)])]);
        let b = RoutingSchedule::from_layers(vec![layer(&[(2, 3)])]);
        let c = a.then(b, 4);
        assert_eq!(c.depth(), 1);
        assert_eq!(c.size(), 2);
    }

    #[test]
    fn relabeled_conjugates_the_realized_permutation() {
        // Map the top row of a 2x3 grid onto the bottom row (a graph
        // embedding); the relabeled schedule must realize the conjugated
        // permutation and stay valid.
        let g = Grid::new(2, 3);
        let s = RoutingSchedule::from_layers(vec![layer(&[(0, 1)]), layer(&[(1, 2)])]);
        let f = |v: usize| v + 3;
        let r = s.relabeled(f);
        assert_eq!(r.depth(), s.depth());
        assert_eq!(r.size(), s.size());
        r.validate_on(&g.to_graph()).unwrap();
        let base = s.realized_permutation(3);
        let lifted = r.realized_permutation(6);
        for v in 0..3 {
            assert_eq!(lifted.apply(f(v)), f(base.apply(v)));
            assert_eq!(lifted.apply(v), v, "untouched vertices stay fixed");
        }
    }

    #[test]
    fn realized_permutation_inverse_relation() {
        // Applying a schedule for π to the identity configuration leaves
        // token v at π(v).
        let mut s = RoutingSchedule::empty();
        s.push_layer(layer(&[(0, 1)]));
        s.push_layer(layer(&[(0, 1)]));
        assert!(s.realizes(&Permutation::identity(2)));
    }

    #[test]
    fn packed_schedule_round_trips() {
        let s = RoutingSchedule::from_layers(vec![
            layer(&[(0, 1), (2, 3)]),
            layer(&[(1, 2)]),
            layer(&[(0, 1), (4, 5), (2, 3)]),
        ]);
        let packed = PackedSchedule::pack(&s);
        assert_eq!(packed.depth(), 3);
        assert_eq!(packed.size(), 6);
        assert_eq!(packed.relabeled(|v| v), s);
        assert_eq!(packed.relabeled(|v| 5 - v), s.relabeled(|v| 5 - v));

        let empty = PackedSchedule::pack(&RoutingSchedule::empty());
        assert_eq!((empty.depth(), empty.size()), (0, 0));
        assert_eq!(empty.relabeled(|v| v), RoutingSchedule::empty());
    }

    #[test]
    #[cfg(target_pointer_width = "64")]
    #[should_panic(expected = "does not fit u32")]
    fn packing_rejects_vertex_ids_past_u32() {
        let wide = u32::MAX as usize + 1;
        PackedSchedule::pack(&RoutingSchedule::from_layers(vec![layer(&[(0, wide)])]));
    }
}
