(** Replica placement for the hierarchical store.

    A key stored in domain [Ds] has a {e primary} — the node of [Ds]
    responsible for the key under the paper's closest-at-or-below rule
    ({!Canon_overlay.Rings.responsible}) — plus [k - 1] extra replicas.
    Two placement policies:

    - {e flat} (Chord §successor-list replication): the replicas are the
      first live nodes met walking clockwise from the primary {e within
      [Ds]'s own ring}. Cheap and local, but a whole-domain outage
      ([Fault_plan.crash_domain]) takes every copy with it.
    - {e sibling} (the Canon twist): after the primary, each further
      replica is forced into a {e distinct leaf domain}, visiting the
      primary's sibling domains nearest-first (siblings under the
      parent, then under the grandparent, and so on). Each chosen leaf
      contributes its own responsible-or-next-live node for the key.
      When the live leaf domains run out before [k], the remainder is
      filled from the global ring — so the policy degrades to flat
      rather than under-replicating.

    Both policies are deterministic (no randomness) and return distinct
    live nodes, primary-equivalent first. The invariants pinned by the
    property suite:

    - [length (compute ...)] = [min k live] where [live] counts the
      policy's universe (the domain's live members for flat, all live
      nodes for sibling);
    - under [Sibling], the holders occupy
      [min (length holders) (live leaf domains)] distinct leaf domains —
      no two forced-spread replicas share a leaf.

    {2 Cost}

    [Sibling] visits leaf domains lazily, in the order above (for each
    ancestor of the primary's leaf from the bottom up, its other
    children in {!Canon_hierarchy.Domain_tree.children} order, each
    child's leaves depth-first), and stops as soon as [k] holders are
    taken. When the leaves it passes hold live nodes, a call costs
    O(k · depth) tree steps and k ring walks (one per holder), however
    many leaf domains the hierarchy has; each dead or empty leaf passed
    on the way adds one ring walk. The order, and hence every holder
    set, is unchanged from a scan of the full list of leaves: no leaf
    after the [k]-th holder could add one. The taken set is a list of
    at most [k] nodes, so no hashtable is built per call. The
    global-ring fallback, reached only when live leaf domains run out,
    walks that ring as [Flat] does. *)

open Canon_idspace
open Canon_overlay

type spread =
  | Flat  (** k-successor replication inside the storage domain's ring *)
  | Sibling  (** one replica per distinct leaf domain, siblings first *)

val spread_to_string : spread -> string
(** ["flat"] / ["sibling"]. *)

val compute :
  ?alive:(int -> bool) ->
  Rings.t ->
  spread:spread ->
  k:int ->
  domain:int ->
  key:Id.t ->
  int array
(** [compute rings ~spread ~k ~domain ~key] is the ordered replica set
    for [key] stored in [domain]: distinct nodes for which [alive] holds
    (default: everyone), the primary (or its first live stand-in) first,
    at most [k] of them. Fewer than [k] are returned exactly when the
    policy's universe has fewer than [k] live nodes; an empty array when
    it has none. Raises [Invalid_argument] when [k < 1] or [domain] is
    out of range. *)
