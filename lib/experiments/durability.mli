(** Durability extension: keys-surviving fraction vs crashed-node
    fraction × replication degree, flat Chord successor-replication vs
    Crescendo sibling-spread ({!Canon_storage.Replica_set}).

    Keys are published with the writer's own leaf domain as storage
    domain and written through a {!Canon_storage.Replicated_store} at
    each (spread, k) configuration; a key {e survives} a crash set when
    some replica holder is still standing. Every configuration sees the
    same keys and the same crash sets, so columns are comparable.

    Two fault shapes per sweep:
    - random fractions ([fail_fracs] rows): uncorrelated crashes — both
      policies hold k independent copies, so their survival is similar;
    - the ["outage"] row: [Fault_plan.crash_domain] of the leaf domain
      storing the most keys — the paper's correlated-failure scenario.
      Flat keeps every copy inside the crashed leaf and loses all its
      keys; sibling-spread forces a copy outside, so with k >= 2 it
      loses {e none}. This is the §5.4 containment claim carried from
      lookups (PR 2's [robustness]) to data.

    Deterministic: the seed fixes population, keys and crash sets. *)

val run : scale:Common.scale -> seed:int -> Canon_stats.Table.t
(** The default sweep: fractions 0.1/0.2/0.3/0.5 plus the outage row,
    k ∈ {2, 3}, both spread policies. *)

val run_with :
  ?fail_fracs:float list ->
  ?ks:int list ->
  ?spreads:Canon_storage.Replica_set.spread list ->
  ?n:int ->
  ?keys:int ->
  scale:Common.scale ->
  seed:int ->
  unit ->
  Canon_stats.Table.t
(** [run] restricted to the given fractions, replication degrees and
    policies (the CLI's [--fail-frac] / [--replicas] / [--spread]);
    [n] / [keys] override the scale's population and key count. Raises
    [Invalid_argument] on an empty configuration, [k < 1], a fraction
    outside \[0, 1\] (NaN included), [n < 1] or [keys < 1]. *)
