//! Gao-Rexford route propagation.
//!
//! Computes, for one origin announcement, the best route every AS in the
//! topology holds toward the origin. Propagation happens in the classic
//! three phases: customer routes bubble up, customer routes cross one peer
//! edge, then everything flows down to customers.
//!
//! The result is valley-free by construction: an AS-level traffic path
//! climbs customer→provider edges, crosses at most one peer edge, and then
//! descends provider→customer edges. `valley_free` checks that property and
//! the test-suite applies it to every path.
//!
//! # Planet-scale storage, the frontier worklist and the descent pass
//!
//! Routes live in a flat `Vec<Option<BestRoute>>` of `Copy` records; AS
//! paths are interned into a shared-suffix [`PathArena`] (§DESIGN 5g) and
//! entry links into an [`EntryPool`], so table memory is O(routed ASes),
//! not O(Σ path lengths). The export rounds between phases walk only the
//! frontier of ASes that actually hold a route (installation order is
//! tracked in a worklist) instead of sweeping all `0..n` slots. Neighbors
//! come from the topology's [`RelAdjacency`], built once per topology
//! content rather than once per table.
//!
//! Phase 1 touches only the origin's provider ancestry, so it relaxes a
//! sparse bucket queue indexed by path length. Phase 3 reaches nearly
//! every AS, so it is one pull pass instead: each AS is visited after all
//! of its providers (the topology's cached [`ProviderOrder`], which is id
//! order for generated worlds) and takes the best of the provider routes
//! they hold, then interns its path on the spot. A topology whose
//! customer→provider edges cycle has no such order and fails closed with
//! [`AnnouncementError::ProviderCycle`].
//!
//! Both fold each AS's candidates in the arrival order of a `(len, via,
//! asn)` min-heap relaxation, which keeps the work counters
//! ([`RoutingTable::work`]) stable. Because `consider` installs by a strict
//! total order, the routes themselves do not depend on that order at all;
//! `tests/proptest_routing.rs` checks routes and counters against an
//! independent heap-and-sweep oracle written over the public API.

use crate::announcement::{Announcement, AnnouncementError, Scope};
use crate::arena::{EntryHandle, EntryPool, PathArena, PathHandle};
use crate::decision::RouteClass;
use crate::route::BestRoute;
use bb_topology::{AsId, BusinessRel, InterconnectId, ProviderOrder, RelAdjacency, Topology};

/// Why a path could not be produced for an AS.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PathError {
    /// The AS holds no route toward the origin.
    Unrouted(AsId),
    /// The via chain runs into a cycle at the named AS. Cannot happen for
    /// tables produced by `compute_routes` (phases only ever shorten or
    /// re-class routes along acyclic relationships); it guards corrupted
    /// or hand-patched tables without panicking a planet-scale campaign.
    ViaCycle(AsId),
}

impl std::fmt::Display for PathError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PathError::Unrouted(asn) => write!(f, "{asn} holds no route toward the origin"),
            PathError::ViaCycle(asn) => write!(f, "via-chain cycle at {asn}"),
        }
    }
}

impl std::error::Error for PathError {}

/// Best route per AS toward one origin announcement.
#[derive(Debug, Clone)]
pub struct RoutingTable {
    pub origin: AsId,
    best: Vec<Option<BestRoute>>,
    paths: PathArena,
    entries: EntryPool,
    /// First AS found on a via cycle while interning, if any.
    cycle: Option<AsId>,
    /// Work done reaching the fixpoint: (candidates considered, installed).
    work: (u64, u64),
}

impl RoutingTable {
    /// Best route at `asn`, if it has one.
    pub fn route(&self, asn: AsId) -> Option<&BestRoute> {
        self.best[asn.index()].as_ref()
    }

    /// Tied-best interconnects into the origin for a first-hop AS (empty
    /// for everyone else, including unrouted ASes).
    pub fn entry_links(&self, asn: AsId) -> &[InterconnectId] {
        match &self.best[asn.index()] {
            Some(r) => self.entries.get(r.entry),
            None => &[],
        }
    }

    /// The AS-level path from `asn` to the origin, inclusive on both ends
    /// (ignoring prepending repetitions). `None` if `asn` is unrouted or
    /// its via chain is poisoned by a cycle (see [`Self::as_path_checked`]).
    pub fn as_path(&self, asn: AsId) -> Option<Vec<AsId>> {
        self.as_path_checked(asn).ok()
    }

    /// Like [`Self::as_path`], but distinguishes "unrouted" from "the via
    /// chain cycles", naming the AS where the cycle was detected.
    pub fn as_path_checked(&self, asn: AsId) -> Result<Vec<AsId>, PathError> {
        let route = self
            .route(asn)
            .ok_or(PathError::Unrouted(asn))?;
        if route.path.is_cycle() {
            return Err(PathError::ViaCycle(self.cycle.unwrap_or(asn)));
        }
        self.paths
            .materialize(route.path)
            .ok_or(PathError::Unrouted(asn))
    }

    /// Number of ASes holding a route.
    pub fn reachable_count(&self) -> usize {
        self.best.iter().filter(|r| r.is_some()).count()
    }

    /// Iterate over (AsId, BestRoute).
    pub fn routes(&self) -> impl Iterator<Item = (AsId, &BestRoute)> {
        self.best
            .iter()
            .enumerate()
            .filter_map(|(i, r)| r.as_ref().map(|r| (AsId(i as u32), r)))
    }

    /// Bytes spent on interned path storage (the shared-suffix arena).
    pub fn interned_path_bytes(&self) -> usize {
        self.paths.bytes()
    }

    /// Bytes spent on the pooled entry-link spans (reported separately:
    /// the naive layout stored these as per-route `Vec`s too, but the
    /// RIB-memory ceiling is defined over path storage).
    pub fn entry_pool_bytes(&self) -> usize {
        self.entries.bytes()
    }

    /// Bytes the same paths would cost as one owned `Vec<AsId>` per routed
    /// AS (24-byte vec header + 4 bytes per hop) — the pre-interning
    /// layout, used for the `rib:*` memory counters.
    pub fn naive_path_bytes(&self) -> usize {
        let lens = self.paths.path_lens();
        self.best
            .iter()
            .filter_map(|r| r.as_ref())
            .map(|r| 24 + 4 * lens.get(r.path.0 as usize).map_or(0, |&l| l as usize))
            .sum()
    }

    /// (candidates considered, candidates installed) while reaching the
    /// fixpoint — the propagation work counters surfaced in perf reports.
    pub fn work(&self) -> (u64, u64) {
        self.work
    }
}

/// Fixpoint state: flat route slots, the worklist of routed ASes in
/// first-installation order (the frontier the export rounds walk), and the
/// arena final routes are interned into.
struct Builder {
    origin: AsId,
    best: Vec<Option<BestRoute>>,
    routed: Vec<AsId>,
    entries: EntryPool,
    paths: PathArena,
    /// First AS found on a via cycle while interning, if any.
    cycle: Option<AsId>,
    considered: u64,
    installed: u64,
}

/// The route `via` offers one hop further, as a `class` route.
fn hop(class: RouteClass, via_len: u32, via: AsId) -> BestRoute {
    BestRoute {
        class,
        path_len: via_len + 1,
        via: Some(via),
        path: PathHandle::NONE,
        entry: EntryHandle::NONE,
        no_export: false,
    }
}

impl Builder {
    fn new(n: usize, origin: AsId) -> Builder {
        let mut b = Builder {
            origin,
            best: vec![None; n],
            routed: Vec::new(),
            entries: EntryPool::default(),
            paths: PathArena::with_capacity(n),
            cycle: None,
            considered: 0,
            installed: 0,
        };
        b.best[origin.index()] = Some(BestRoute::origin());
        b.routed.push(origin);
        b
    }

    /// Install `cand` at `asn` if it beats the incumbent under the decision
    /// process (with the per-AS hashed tie-break). Returns whether it was
    /// installed. The order is strict and total over distinct candidates,
    /// so the fixpoint does not depend on arrival order. A first install
    /// joins the `routed` worklist.
    fn consider(&mut self, asn: AsId, cand: BestRoute) -> bool {
        self.considered += 1;
        let wins = match &self.best[asn.index()] {
            None => {
                self.routed.push(asn);
                true
            }
            Some(inc) => {
                let inc_key = (inc.class, inc.path_len, inc.via.unwrap_or(AsId(u32::MAX)));
                let cand_key = (cand.class, cand.path_len, cand.via.unwrap_or(AsId(u32::MAX)));
                crate::decision::better_at(asn, cand_key, inc_key)
            }
        };
        if wins {
            self.best[asn.index()] = Some(cand);
            self.installed += 1;
        }
        wins
    }

    /// Phase 1: starting from `seeds`, customer routes climb every
    /// customer→provider edge, relaxed on AS-path length.
    ///
    /// `buckets[len]` queues the `(via, asn)` keys of routes installed at
    /// that length. Expanding a length-`len` route only ever queues length
    /// `len + 1`, so each bucket is final when its turn comes; sorting it
    /// expands ASes in `(len, via, asn)` order, the arrival order the work
    /// counters are defined over. Parallel links repeat a neighbor in its
    /// row; the repeat never strictly beats the copy it duplicates, so it
    /// is counted but not installed.
    fn climb(&mut self, adj: &RelAdjacency, seeds: Vec<(AsId, BestRoute)>) {
        fn enqueue(buckets: &mut Vec<Vec<(u32, u32)>>, len: u32, via: u32, asn: AsId) {
            let len = len as usize;
            if buckets.len() <= len {
                buckets.resize_with(len + 1, Vec::new);
            }
            buckets[len].push((via, asn.0));
        }
        let mut buckets: Vec<Vec<(u32, u32)>> = Vec::new();
        for (asn, route) in seeds {
            let (len, via) = (route.path_len, route.via.map_or(u32::MAX, |v| v.0));
            if self.consider(asn, route) {
                enqueue(&mut buckets, len, via, asn);
            }
        }
        let mut len = 0;
        while len < buckets.len() {
            let mut bucket = std::mem::take(&mut buckets[len]);
            bucket.sort_unstable();
            let len_u32 = len as u32;
            for (via, asn) in bucket {
                let asn = AsId(asn);
                // Skip stale entries, and never expand NO_EXPORT routes.
                let Some(cur) = self.best[asn.index()] else {
                    continue;
                };
                if cur.path_len != len_u32
                    || cur.via.map_or(u32::MAX, |v| v.0) != via
                    || cur.no_export
                {
                    continue;
                }
                for &nxt in adj.row(asn, BusinessRel::CustomerOf) {
                    if self.consider(nxt, hop(RouteClass::Customer, len_u32, asn)) {
                        enqueue(&mut buckets, len_u32 + 1, asn.0, nxt);
                    }
                }
            }
            len += 1;
        }
    }

    /// One export round: every AS in `routed[..upto]` offers its route one
    /// hop further to each neighbor it has relationship `toward` with, as
    /// a `class` route — except the origin (the announcement governs its
    /// exports), NO_EXPORT holders and, with `customer_only`, non-customer
    /// routes. Exporters go in installation order. Offers cannot change an
    /// exporter's own route (a peer offer never beats a customer route, a
    /// provider offer never beats either), so they go straight into
    /// `consider`.
    fn export(
        &mut self,
        adj: &RelAdjacency,
        upto: usize,
        toward: BusinessRel,
        class: RouteClass,
        customer_only: bool,
    ) {
        for i in 0..upto {
            let asn = self.routed[i];
            let route = self.best[asn.index()].expect("routed ASes hold a route");
            if route.is_origin() || route.no_export {
                continue;
            }
            if customer_only && route.class != RouteClass::Customer {
                continue;
            }
            for &nxt in adj.row(asn, toward) {
                self.consider(nxt, hop(class, route.path_len, asn));
            }
        }
    }

    /// Phase 3's cascade as one pull pass: visit every AS after all of its
    /// providers, fold the provider routes they hold into its own, then
    /// intern its path (its via is interned already).
    ///
    /// Each AS hears its offers in the arrival order a `(len, via, asn)`
    /// push relaxation would give it: the announcement's seeds and the
    /// exports of routes held before phase 3 (both folded by the caller),
    /// then its providers' provider routes by `(path_len, via, provider)`.
    /// `installed` counts strict improvements, so that order keeps it
    /// bit-identical; `considered` is the same edge set either way.
    fn descend(&mut self, adj: &RelAdjacency, order: &ProviderOrder) {
        let mut offers = Vec::new();
        match order.permutation() {
            None => {
                for i in 0..self.best.len() {
                    self.pull(adj, AsId(i as u32), &mut offers);
                }
            }
            Some(perm) => {
                for &asn in perm {
                    self.pull(adj, asn, &mut offers);
                }
            }
        }
    }

    #[inline]
    fn pull(&mut self, adj: &RelAdjacency, asn: AsId, offers: &mut Vec<(u32, u32, AsId)>) {
        offers.clear();
        for &p in adj.row(asn, BusinessRel::CustomerOf) {
            // Customer and peer routes (the origin's included) were
            // exported before the pass; NO_EXPORT routes stop at `p`.
            if let Some(r) = &self.best[p.index()] {
                if r.class == RouteClass::Provider && !r.no_export {
                    offers.push((r.path_len, r.via.map_or(u32::MAX, |v| v.0), p));
                }
            }
        }
        offers.sort_unstable();
        for &(len, _, p) in offers.iter() {
            self.consider(asn, hop(RouteClass::Provider, len, p));
        }
        let Some(route) = self.best[asn.index()] else {
            return;
        };
        if route.class != RouteClass::Provider {
            return; // interned before the pass
        }
        let via = route.via.expect("provider routes have a next hop");
        let parent = self.best[via.index()].map_or(PathHandle::CYCLE, |r| r.path);
        debug_assert!(
            !parent.is_none(),
            "{via} is visited before its customer {asn}"
        );
        let path = if parent.is_cycle() {
            PathHandle::CYCLE
        } else {
            self.paths.intern(asn, parent)
        };
        if let Some(r) = &mut self.best[asn.index()] {
            r.path = path;
        }
    }

    /// Intern the via chain of every AS on the `routed` worklist. Runs
    /// once those routes are final — after phase 2, since the descent
    /// never replaces a customer or peer route — so the walk covers the
    /// few ASes routed by then, not every slot. A via cycle (impossible
    /// from propagation, possible from corruption) poisons the affected
    /// chains instead of diverging.
    fn intern_routed(&mut self) {
        // Marks an AS on the current walk; never escapes this function.
        const WALKING: PathHandle = PathHandle(u32::MAX - 2);
        for &asn in &self.routed {
            if let Some(r) = &mut self.best[asn.index()] {
                r.path = PathHandle::NONE;
            }
        }
        let mut stack: Vec<u32> = Vec::new();
        for i in 0..self.routed.len() {
            let mut cur = self.routed[i].index();
            let mut parent = loop {
                let r = self.best[cur].as_mut().expect("walks stay on routed ASes");
                match r.path {
                    PathHandle::NONE => {}
                    WALKING => {
                        // The walk bit its own tail: poison the chain.
                        self.cycle.get_or_insert(AsId(cur as u32));
                        break PathHandle::CYCLE;
                    }
                    done => break done,
                }
                r.path = WALKING;
                let via = r.via;
                stack.push(cur as u32);
                match via {
                    None => break PathHandle::NONE,
                    Some(v) if self.best[v.index()].is_none() => {
                        // Dangling via — treat like a poisoned chain.
                        self.cycle.get_or_insert(AsId(cur as u32));
                        break PathHandle::CYCLE;
                    }
                    Some(v) => cur = v.index(),
                }
            };
            // Unwind deepest-first, attaching each AS to its via's path.
            while let Some(node) = stack.pop() {
                let h = if parent.is_cycle() {
                    PathHandle::CYCLE
                } else {
                    self.paths.intern(AsId(node), parent)
                };
                if let Some(r) = &mut self.best[node as usize] {
                    r.path = h;
                }
                parent = h;
            }
        }
    }

    fn finish(mut self) -> RoutingTable {
        self.paths.shrink_to_fit();
        RoutingTable {
            origin: self.origin,
            best: self.best,
            paths: self.paths,
            entries: self.entries,
            cycle: self.cycle,
            work: (self.considered, self.installed),
        }
    }
}

/// Compute routes for `announcement` over `topo`.
///
/// Panics if the announcement does not belong to `topo` (unknown origin,
/// foreign links); use [`try_compute_routes`] to surface that as an error.
///
/// ```
/// use bb_bgp::{compute_routes, Announcement};
/// use bb_topology::{generate, AsClass, TopologyConfig};
///
/// let topo = generate(&TopologyConfig::small(1));
/// let origin = topo.ases_of_class(AsClass::Eyeball).next().unwrap().id;
/// let table = compute_routes(&topo, &Announcement::full(&topo, origin));
/// // A fully-announced prefix reaches the whole Internet…
/// assert_eq!(table.reachable_count(), topo.as_count());
/// // …and every AS's path ends at the origin.
/// let some_as = topo.ases()[0].id;
/// assert_eq!(*table.as_path(some_as).unwrap().last().unwrap(), origin);
/// ```
pub fn compute_routes(topo: &Topology, announcement: &Announcement) -> RoutingTable {
    try_compute_routes(topo, announcement).unwrap_or_else(|e| panic!("{e}"))
}

/// [`compute_routes`], failing closed when the announcement was built
/// against a different (or since-mutated) topology instead of panicking —
/// the caller maps this to a usage error.
pub fn try_compute_routes(
    topo: &Topology,
    announcement: &Announcement,
) -> Result<RoutingTable, AnnouncementError> {
    announcement.validate(topo)?;
    let origin = announcement.origin;
    let order = topo
        .provider_order()
        .map_err(|at| AnnouncementError::ProviderCycle { origin, at })?;
    let adj = topo.rel_adjacency();
    let mut b = Builder::new(topo.as_count(), origin);

    // --- Seed first hops from the announcement. ---
    // The class at a first-hop neighbor is determined by how it relates to
    // the origin: the origin's providers hear a customer route, etc.
    // `validate` above guarantees every offered link exists, touches the
    // origin, implies a relationship, and prepends at most `MAX_PREPEND`.
    let mut customer_seeds = Vec::new();
    let mut peer_seeds = Vec::new();
    let mut provider_seeds = Vec::new();
    for offer in announcement.offers_by_neighbor(topo) {
        let nb = offer.neighbor;
        let rel_origin_to_nb = topo
            .relationship(origin, nb)
            .expect("validated announcement implies relationship");
        let class = RouteClass::from_neighbor_rel(rel_origin_to_nb);
        let route = BestRoute {
            class,
            path_len: 1 + offer.prepend,
            via: Some(origin),
            path: PathHandle::NONE,
            entry: b.entries.intern(&offer.entry_links),
            no_export: offer.scope == Scope::NoExport,
        };
        match class {
            RouteClass::Customer => customer_seeds.push((nb, route)),
            RouteClass::Peer => peer_seeds.push((nb, route)),
            RouteClass::Provider => provider_seeds.push((nb, route)),
        }
    }

    // --- Phase 1: customer routes climb provider edges. ---
    b.climb(adj, customer_seeds);

    // --- Phase 2: customer routes cross one peer edge. ---
    // Every AS holding a customer route exports to its peers. Peer routes
    // do not propagate further among peers, so this is a single round,
    // not a search.
    let exporters = b.routed.len();
    for (asn, route) in peer_seeds {
        b.consider(asn, route);
    }
    b.export(adj, exporters, BusinessRel::Peer, RouteClass::Peer, true);
    // Every route held now is final: provider routes never beat them.
    b.intern_routed();

    // --- Phase 3: everything descends customer edges. ---
    // Every routed AS exports to its customers; provider routes cascade.
    let exporters = b.routed.len();
    for (asn, route) in provider_seeds {
        b.consider(asn, route);
    }
    b.export(
        adj,
        exporters,
        BusinessRel::ProviderOf,
        RouteClass::Provider,
        false,
    );
    b.descend(adj, order);

    Ok(b.finish())
}

/// Check the valley-free property of a traffic path `p = [src, ..., origin]`:
/// the sequence of relationships must match `up* peer? down*`, where "up"
/// means the current AS is a customer of the next and "down" means it is a
/// provider of the next.
pub fn valley_free(topo: &Topology, path: &[AsId]) -> bool {
    #[derive(PartialEq, PartialOrd)]
    enum Stage {
        Up,
        Peer,
        Down,
    }
    let mut stage = Stage::Up;
    for w in path.windows(2) {
        let rel = match topo.relationship(w[0], w[1]) {
            Some(r) => r,
            None => return false,
        };
        match rel {
            BusinessRel::CustomerOf => {
                if stage != Stage::Up {
                    return false;
                }
            }
            BusinessRel::Peer => {
                if stage != Stage::Up {
                    return false;
                }
                stage = Stage::Peer;
            }
            BusinessRel::ProviderOf => {
                stage = Stage::Down;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::announcement::MAX_PREPEND;
    use bb_topology::{generate, AsClass, TopologyConfig};

    fn topo() -> Topology {
        generate(&TopologyConfig::small(21))
    }

    fn eyeball(topo: &Topology) -> AsId {
        topo.ases_of_class(AsClass::Eyeball).next().unwrap().id
    }

    #[test]
    fn full_announcement_reaches_everyone() {
        let t = topo();
        let o = eyeball(&t);
        let table = compute_routes(&t, &Announcement::full(&t, o));
        assert_eq!(table.reachable_count(), t.as_count());
    }

    #[test]
    fn all_paths_valley_free() {
        let t = topo();
        for origin in t.ases_of_class(AsClass::Eyeball).take(10) {
            let table = compute_routes(&t, &Announcement::full(&t, origin.id));
            for node in t.ases() {
                let path = table.as_path(node.id).expect("reachable");
                assert!(
                    valley_free(&t, &path),
                    "path {:?} from {} to {} not valley-free",
                    path,
                    node.name,
                    origin.name
                );
            }
        }
    }

    #[test]
    fn origin_route_is_trivial() {
        let t = topo();
        let o = eyeball(&t);
        let table = compute_routes(&t, &Announcement::full(&t, o));
        let r = table.route(o).unwrap();
        assert!(r.is_origin());
        assert_eq!(table.as_path(o).unwrap(), vec![o]);
    }

    #[test]
    fn paths_end_at_origin_and_start_at_source() {
        let t = topo();
        let o = eyeball(&t);
        let table = compute_routes(&t, &Announcement::full(&t, o));
        for node in t.ases().iter().take(30) {
            let path = table.as_path(node.id).unwrap();
            assert_eq!(path[0], node.id);
            assert_eq!(*path.last().unwrap(), o);
        }
    }

    #[test]
    fn direct_neighbors_have_entry_links() {
        let t = topo();
        let o = eyeball(&t);
        let table = compute_routes(&t, &Announcement::full(&t, o));
        for nb in t.neighbors(o) {
            let r = table.route(nb).unwrap();
            assert_eq!(r.via, Some(o));
            assert!(
                !table.entry_links(nb).is_empty(),
                "{nb} should record entry links"
            );
        }
    }

    #[test]
    fn customer_route_preferred_over_shorter_peer_route() {
        // Build by hand: origin O customer of T; T customer of P; P peers
        // with O directly. P must pick the longer customer route via T.
        use bb_geo::atlas::AtlasConfig;
        use bb_geo::Atlas;
        use bb_topology::{AsClass, BusinessRel, ExitPolicy, LinkKind, Topology};
        let atlas = Atlas::generate(&AtlasConfig {
            seed: 2,
            city_density: 0.3,
        });
        let c0 = atlas.cities[0].id;
        let mut t = Topology::new(atlas);
        let p = t.add_as(AsClass::Tier1, "P", vec![c0], ExitPolicy::EarlyExit, 1.1, None, 0.0);
        let tr = t.add_as(AsClass::Transit, "T", vec![c0], ExitPolicy::EarlyExit, 1.2, None, 0.0);
        let o = t.add_as(AsClass::Eyeball, "O", vec![c0], ExitPolicy::EarlyExit, 1.4, Some(0), 1.0);
        t.add_interconnect(o, tr, BusinessRel::CustomerOf, LinkKind::Transit, c0, 10.0);
        t.add_interconnect(tr, p, BusinessRel::CustomerOf, LinkKind::Transit, c0, 10.0);
        t.add_interconnect(o, p, BusinessRel::Peer, LinkKind::PublicPeering, c0, 10.0);

        let table = compute_routes(&t, &Announcement::full(&t, o));
        let r = table.route(p).unwrap();
        assert_eq!(r.class, RouteClass::Customer);
        assert_eq!(r.path_len, 2);
        assert_eq!(r.via, Some(tr));
    }

    #[test]
    fn withholding_shrinks_reachability_or_lengthens_paths() {
        let t = topo();
        let o = eyeball(&t);
        let full = compute_routes(&t, &Announcement::full(&t, o));

        // Withhold all but one neighbor: paths can only get worse.
        let mut ann = Announcement::full(&t, o);
        let keep = t.adjacency(o)[0].1;
        for &(_, l) in &t.adjacency(o)[1..] {
            if l != keep {
                ann.withhold_link(l);
            }
        }
        let partial = compute_routes(&t, &ann);
        assert!(partial.reachable_count() <= full.reachable_count());
        for (asn, r) in partial.routes() {
            let fr = full.route(asn).unwrap();
            assert!(
                r.path_len >= fr.path_len || r.class >= fr.class,
                "withholding must not improve routes at {asn}"
            );
        }
    }

    #[test]
    fn prepending_diverts_route_choice() {
        // Find an AS with ≥2 neighbors; prepend heavily toward the one its
        // providers prefer and check some AS changes its via.
        let t = topo();
        let o = eyeball(&t);
        let full = compute_routes(&t, &Announcement::full(&t, o));

        let mut ann = Announcement::full(&t, o);
        // Heavily prepend toward the first neighbor.
        let nb0 = t.adjacency(o)[0].0;
        for &(nb, l) in t.adjacency(o) {
            if nb == nb0 {
                ann.prepend_link(l, 10);
            }
        }
        let groomed = compute_routes(&t, &ann);
        let r_full = full.route(nb0).unwrap();
        let r_groomed = groomed.route(nb0).unwrap();
        // The neighbor still has a route (maybe via another AS now), but the
        // direct offer got longer.
        assert!(r_groomed.path_len >= r_full.path_len);
    }

    #[test]
    fn deterministic() {
        let t = topo();
        let o = eyeball(&t);
        let a = compute_routes(&t, &Announcement::full(&t, o));
        let b = compute_routes(&t, &Announcement::full(&t, o));
        for node in t.ases() {
            assert_eq!(a.route(node.id), b.route(node.id));
        }
    }

    #[test]
    fn work_counters_are_pinned() {
        // Every AS must hear its candidates in the order a `(len, via,
        // asn)` min-heap relaxation delivers them: phase 1's bucket drain
        // and the descent's per-AS fold (seeds, then pre-descent exports in
        // installation order, then provider routes by `(len, via, asn)`)
        // both replay it. The install counts depend on that order (folding
        // AS33's provider offers in adjacency order gives 141, not 121),
        // so drift shows up here as a changed counter.
        let t = topo();
        let pinned = [
            (AsId(33), (470, 121), (470, 116)),
            (AsId(34), (439, 164), (439, 155)),
        ];
        for (o, full_work, prepended_work) in pinned {
            assert_eq!(
                compute_routes(&t, &Announcement::full(&t, o)).work(),
                full_work
            );
            let mut ann = Announcement::full(&t, o);
            for (i, &(_, l)) in t.adjacency(o).iter().enumerate() {
                if i % 3 == 1 {
                    ann.prepend_link(l, 2);
                }
            }
            assert_eq!(compute_routes(&t, &ann).work(), prepended_work, "{o}");
        }
    }

    #[test]
    fn oversized_prepend_fails_closed() {
        // Without the cap, `1 + prepend` overflows: a debug build panics
        // and a release build wraps to a length-0 route that beats every
        // real one.
        let t = topo();
        let o = eyeball(&t);
        let link = t.adjacency(o)[0].1;
        for prepend in [MAX_PREPEND + 1, u32::MAX] {
            let mut ann = Announcement::full(&t, o);
            ann.prepend_link(link, prepend);
            let err = try_compute_routes(&t, &ann).unwrap_err();
            assert_eq!(
                err,
                AnnouncementError::PrependTooLong {
                    origin: o,
                    link,
                    prepend
                }
            );
            assert!(err.to_string().contains("prepend"), "{err}");
        }
        let mut ann = Announcement::full(&t, o);
        ann.prepend_link(link, MAX_PREPEND);
        let table = try_compute_routes(&t, &ann).expect("the cap itself is allowed");
        assert_eq!(table.reachable_count(), t.as_count());
    }

    #[test]
    fn interned_storage_beats_naive_vectors() {
        let t = topo();
        let o = eyeball(&t);
        let table = compute_routes(&t, &Announcement::full(&t, o));
        let (considered, installed) = table.work();
        assert!(considered >= installed);
        assert!(installed as usize >= table.reachable_count());
        assert!(
            table.interned_path_bytes() * 4 <= table.naive_path_bytes(),
            "arena ({}) must be ≤ 25% of naive vec storage ({})",
            table.interned_path_bytes(),
            table.naive_path_bytes()
        );
    }

    #[test]
    fn via_cycle_reports_instead_of_panicking() {
        // Corrupt a finished table into a 2-cycle and re-intern: as_path
        // must degrade to a structured error naming a cycle member, not
        // panic (the release-mode failure the old bare assert! allowed).
        let t = topo();
        let o = eyeball(&t);
        let table = compute_routes(&t, &Announcement::full(&t, o));
        let (a, b) = {
            let mut it = t.ases().iter().map(|a| a.id).filter(|&x| x != o);
            (it.next().unwrap(), it.next().unwrap())
        };
        let mut builder = Builder::new(t.as_count(), o);
        for (asn, r) in table.routes() {
            builder.best[asn.index()] = Some(*r);
            if asn != o {
                builder.routed.push(asn);
            }
        }
        builder.best[a.index()].as_mut().unwrap().via = Some(b);
        builder.best[b.index()].as_mut().unwrap().via = Some(a);
        builder.intern_routed();
        let poisoned = builder.finish();
        let err = poisoned.as_path_checked(a).unwrap_err();
        assert!(matches!(err, PathError::ViaCycle(at) if at == a || at == b));
        assert_eq!(poisoned.as_path(a), None);
        assert_eq!(poisoned.as_path(b), None);
        assert!(matches!(poisoned.as_path_checked(b), Err(PathError::ViaCycle(_))));
        // Chains not touching the cycle still materialize.
        assert_eq!(poisoned.as_path(o).unwrap(), vec![o]);
    }

    #[test]
    fn mismatched_announcement_fails_closed() {
        use bb_topology::InterconnectId;
        let t = topo();
        // An announcement built against a different (bigger) topology must
        // surface structured errors, not panic deep in seeding.
        let ghost = AsId(t.as_count() as u32);
        let err = try_compute_routes(&t, &Announcement::empty(ghost)).unwrap_err();
        assert!(matches!(err, AnnouncementError::UnknownOrigin { origin, .. } if origin == ghost));

        let o = topo().ases()[0].id;
        let mut ann = Announcement::empty(o);
        ann.offer(InterconnectId(t.link_count() as u32), 0);
        let err = try_compute_routes(&t, &ann).unwrap_err();
        assert!(matches!(err, AnnouncementError::UnknownLink { .. }), "{err}");

        // A link that exists but does not touch the origin: find one.
        let foreign = (0..t.link_count() as u32)
            .map(InterconnectId)
            .find(|&l| {
                let link = t.link(l);
                link.a != o && link.b != o
            })
            .expect("some link avoids AS 0");
        let mut ann = Announcement::empty(o);
        ann.offer(foreign, 0);
        let err = try_compute_routes(&t, &ann).unwrap_err();
        assert!(matches!(err, AnnouncementError::ForeignLink { .. }), "{err}");
        // Errors render with enough context to act on.
        assert!(err.to_string().contains("announce"), "{err}");
    }

    /// A tier-1 above a 3-cycle of customer→provider edges, shaped like
    /// `bb_topology::validate`'s `provider_cycle_detected` world.
    fn provider_cycle_world() -> (Topology, AsId, [AsId; 3]) {
        use bb_geo::atlas::AtlasConfig;
        use bb_geo::Atlas;
        use bb_topology::{ExitPolicy, LinkKind};
        let atlas = Atlas::generate(&AtlasConfig {
            seed: 1,
            city_density: 0.3,
        });
        let c0 = atlas.cities[0].id;
        let mut t = Topology::new(atlas);
        let t1 = t.add_as(AsClass::Tier1, "t", vec![c0], ExitPolicy::EarlyExit, 1.1, None, 0.0);
        let x = t.add_as(AsClass::Transit, "x", vec![c0], ExitPolicy::EarlyExit, 1.2, None, 0.0);
        let y = t.add_as(AsClass::Transit, "y", vec![c0], ExitPolicy::EarlyExit, 1.2, None, 0.0);
        let z = t.add_as(AsClass::Transit, "z", vec![c0], ExitPolicy::EarlyExit, 1.2, None, 0.0);
        for (a, b) in [(x, t1), (x, y), (y, z), (z, x)] {
            t.add_interconnect(a, b, BusinessRel::CustomerOf, LinkKind::Transit, c0, 10.0);
        }
        (t, t1, [x, y, z])
    }

    #[test]
    fn provider_cycle_fails_closed() {
        let (t, t1, cycle) = provider_cycle_world();
        for origin in [t1, cycle[0], cycle[2]] {
            let err = try_compute_routes(&t, &Announcement::full(&t, origin)).unwrap_err();
            assert!(
                matches!(err, AnnouncementError::ProviderCycle { origin: o, at }
                    if o == origin && cycle.contains(&at)),
                "{err:?}"
            );
            assert!(err.to_string().contains("cycle"), "{err}");
        }
        // The announcement is checked first: a foreign one still says so.
        let ghost = AsId(t.as_count() as u32);
        let err = try_compute_routes(&t, &Announcement::empty(ghost)).unwrap_err();
        assert!(matches!(err, AnnouncementError::UnknownOrigin { .. }), "{err}");
    }

    #[test]
    fn descent_follows_provider_order_not_ids() {
        // Ids run against the hierarchy: E (0) buys from T (1), which buys
        // from P (2); F (3) buys from P and originates. The descent must
        // still visit P before T before E.
        use bb_geo::atlas::AtlasConfig;
        use bb_geo::Atlas;
        use bb_topology::{ExitPolicy, LinkKind};
        let atlas = Atlas::generate(&AtlasConfig {
            seed: 2,
            city_density: 0.3,
        });
        let c0 = atlas.cities[0].id;
        let mut t = Topology::new(atlas);
        let e = t.add_as(AsClass::Eyeball, "E", vec![c0], ExitPolicy::EarlyExit, 1.4, Some(0), 1.0);
        let tr = t.add_as(AsClass::Transit, "T", vec![c0], ExitPolicy::EarlyExit, 1.2, None, 0.0);
        let p = t.add_as(AsClass::Tier1, "P", vec![c0], ExitPolicy::EarlyExit, 1.1, None, 0.0);
        let f = t.add_as(AsClass::Eyeball, "F", vec![c0], ExitPolicy::EarlyExit, 1.4, Some(0), 1.0);
        for (a, b) in [(e, tr), (tr, p), (f, p)] {
            t.add_interconnect(a, b, BusinessRel::CustomerOf, LinkKind::Transit, c0, 10.0);
        }
        assert!(!t.provider_order().unwrap().is_identity());
        let table = compute_routes(&t, &Announcement::full(&t, f));
        assert_eq!(table.reachable_count(), 4);
        assert_eq!(table.as_path(e).unwrap(), vec![e, tr, p, f]);
        let r = table.route(e).unwrap();
        assert_eq!((r.class, r.path_len, r.via), (RouteClass::Provider, 3, Some(tr)));
        // F's seed reaches P; P's export reaches T and F; T's reaches E.
        assert_eq!(table.work(), (4, 3));
    }

    #[test]
    fn valley_free_rejects_bad_paths() {
        let t = topo();
        // A fabricated path that goes down then up must be rejected if the
        // relationships exist that way; use origin's provider chain.
        let o = eyeball(&t);
        let prov = t.providers_of(o)[0];
        // down (prov -> o is ProviderOf) then up (o -> prov is CustomerOf):
        let path = vec![prov, o, prov];
        assert!(!valley_free(&t, &path));
    }
}

#[cfg(test)]
mod no_export_tests {
    use super::*;
    use crate::announcement::Scope;
    use bb_topology::{generate, AsClass, TopologyConfig};

    #[test]
    fn no_export_stops_one_as_away() {
        let t = generate(&TopologyConfig::small(33));
        let o = t.ases_of_class(AsClass::Eyeball).next().unwrap().id;
        let mut ann = Announcement::empty(o);
        for &(_, l) in t.adjacency(o) {
            ann.offer_scoped(l, 0, Scope::NoExport);
        }
        let table = compute_routes(&t, &ann);
        // Exactly the origin plus its direct neighbors have routes.
        let expected = 1 + t.neighbors(o).len();
        assert_eq!(table.reachable_count(), expected);
        for (asn, r) in table.routes() {
            if asn != o {
                assert_eq!(r.via, Some(o), "{asn} must hold only the direct route");
                assert!(r.no_export);
            }
        }
    }

    #[test]
    fn mixed_scope_keeps_global_reachability() {
        let t = generate(&TopologyConfig::small(33));
        let o = t.ases_of_class(AsClass::Eyeball).next().unwrap().id;
        let mut ann = Announcement::full(&t, o);
        // Tag half the links NO_EXPORT; the rest stay global.
        for (i, &(_, l)) in t.adjacency(o).iter().enumerate() {
            if i % 2 == 0 {
                ann.offer_scoped(l, 0, Scope::NoExport);
            }
        }
        let table = compute_routes(&t, &ann);
        assert_eq!(table.reachable_count(), t.as_count());
    }

    #[test]
    fn no_export_neighbor_can_still_route_via_others() {
        // A neighbor that hears only a NO_EXPORT copy still uses it (it's
        // the shortest), but the rest of the world routes around it.
        let t = generate(&TopologyConfig::small(35));
        let o = t.ases_of_class(AsClass::Eyeball).next().unwrap().id;
        let neighbors = t.neighbors(o);
        if neighbors.len() < 2 {
            return;
        }
        let scoped = neighbors[0];
        let mut ann = Announcement::full(&t, o);
        for &(nb, l) in t.adjacency(o) {
            if nb == scoped {
                ann.offer_scoped(l, 0, Scope::NoExport);
            }
        }
        let table = compute_routes(&t, &ann);
        assert_eq!(table.reachable_count(), t.as_count());
        let r = table.route(scoped).unwrap();
        assert_eq!(r.via, Some(o));
        assert!(r.no_export);
        // No other AS routes *through* the scoped neighbor's direct route.
        for (asn, route) in table.routes() {
            if route.via == Some(scoped) {
                // Such a route must have come from a non-direct path the
                // scoped AS would export — impossible here since its best
                // is the NO_EXPORT direct route.
                panic!("{asn} routes via the NO_EXPORT holder");
            }
        }
    }
}
