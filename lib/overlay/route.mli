(** Routing paths and path-level metrics.

    A path is the full sequence of nodes a message visits, source first.
    All the paper's path metrics — hop count, physical latency, overlap
    fractions, inter-domain edge counts — derive from paths. *)

type t = { nodes : int array }

val hops : t -> int
(** Number of overlay edges traversed, [length - 1]. *)

val destination : t -> int

val edges : t -> (int * int) array
(** Directed edges in traversal order. *)

val latency :
  t -> node_latency:(int -> int -> float) -> float
(** Sum of per-edge latencies under the supplied oracle (which maps two
    node indices to milliseconds). Zero for a single-node path. *)

val overlap_fraction : reference:t -> t -> [ `Hops | `Latency of int -> int -> float ] -> float
(** [overlap_fraction ~reference p metric] is the fraction of path [p]
    (in hops, or in latency under the given oracle) consisting of edges
    that also appear in [reference] — the paper's "hop overlap
    fraction" and "latency overlap fraction" (§5.4). A zero-hop path
    has overlap 0. *)

val domain_crossings :
  t -> domain_of_node:(int -> int) -> int
(** Number of edges whose endpoints lie in different domains under the
    given assignment — the "inter-domain links" of the multicast
    experiment (Fig. 9). A test seam: the [workload] "multicast
    convergence advantage" test reads it. *)
