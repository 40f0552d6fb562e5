(** Figure 6: routing latency and stretch vs network size over the
    transit-stub internet, for Chord and Crescendo with and without
    proximity adaptation.

    Expected shape: Chord's latency grows linearly in log n (stretch
    grows); proximity adaptation shrinks the slope but keeps it a line;
    Crescendo's stretch is an almost flat constant (~2-3 without
    proximity adaptation, lower with it), because growth only deepens
    the cheap lowest-level domains. *)

val run : scale:Common.scale -> seed:int -> Canon_stats.Table.t

val run_with :
  ?sizes:int list -> scale:Common.scale -> seed:int -> unit -> Canon_stats.Table.t
(** [run] with the size sweep overridden (the CLI's [--n]); the default
    is {!Common.topo_sizes}. Every size takes 4000/1500 route samples at
    paper/quick scale. Raises [Invalid_argument] on a size below 2. *)
