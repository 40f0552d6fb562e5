(** A mutable membership view over the maintained overlay, for routing
    against {e current} link state while churn is in flight.

    {!Net} normally routes over a frozen {!Canon_overlay.Overlay}
    snapshot. Under interleaved churn the snapshot lies: a hop chosen at
    send time may be gone by delivery time, and the recovery ladder must
    consult the membership {e of that moment}. A [Live_view] wraps a
    {!Canon_sim.Maintenance.t} (mutated by {!Canon_sim.Churn.apply})
    and exposes exactly what a node can see locally: whether a peer is
    live, its own current link set, and the live per-domain rings that
    back leaf-set fallbacks.

    The view carries a {e generation} counter so consumers (e.g. [Net]'s
    leaf-set cache) can invalidate derived state cheaply: callers must
    {!bump} it after every membership event — most simply by passing
    {!on_hook} as the churn [?on_event] hook. Hook handlers must not
    consume the churn RNG (the determinism contract documented on
    {!Canon_sim.Churn.hook}); [bump] and [on_hook] only touch the
    counter and the memo table. *)

type t

val crescendo : Canon_sim.Maintenance.t -> t
(** View the maintained Crescendo links themselves: {!links} returns
    {!Canon_sim.Maintenance.links}, which the §2.3 protocol keeps equal
    to the static construction over the live membership. *)

val chord : Canon_sim.Maintenance.t -> t
(** Flat-Chord counterpart over the same membership: {!links} applies
    the Chord finger rule ({!Canon_core.Chord.links_of_id}) to the live
    {e global} ring, memoized per {!generation}. This is what makes
    Chord-vs-Crescendo comparisons under live churn possible — the
    maintenance protocol tracks membership, and this view derives the
    flat link state each generation. *)

val is_live : t -> int -> bool

val links : t -> int -> int array
(** Current links of a node, strictly ascending by clockwise distance
    from it as in a frozen overlay, so [Net] takes the same
    {!Canon_core.Router.step_clockwise} over either; [[||]] when it is
    not live. *)

val rings : t -> Canon_overlay.Rings.t
(** The live per-domain rings (do not hold across membership events). *)

val population : t -> Canon_overlay.Population.t

val generation : t -> int

val bump : t -> unit
(** Declare that membership changed: advances {!generation} and drops
    memoized link sets. *)

val on_hook : t -> Canon_sim.Churn.hook -> unit
(** [bump] in churn-hook clothing: pass [(Live_view.on_hook view)] as
    [?on_event] so every [Init]/[Join]/[Leave] invalidates the view. *)
