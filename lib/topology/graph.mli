(** Undirected weighted graphs and single-source shortest paths.

    Used to model the router-level internet (transit-stub topology);
    edge weights are link latencies in milliseconds. *)

type t

val create : int -> t
(** [create n] is an edgeless graph on vertices [0, n). *)

val num_vertices : t -> int

val add_edge : t -> int -> int -> float -> unit
(** [add_edge g u v w] adds the undirected edge [{u, v}] with weight
    [w > 0]. Self-loops and duplicate edges are rejected with
    [Invalid_argument]. *)

val has_edge : t -> int -> int -> bool

val neighbors : t -> int -> (int * float) array
(** Adjacent vertices with edge weights. A test seam: the [topology]
    "stub domains have one exit edge" test reads it. *)

val dijkstra : t -> int -> float array
(** [dijkstra g src] is the array of shortest-path distances from
    [src]; unreachable vertices map to [infinity]. *)

val dijkstra_within : t -> first:int -> count:int -> int -> float array
(** [dijkstra_within g ~first ~count src] runs {!dijkstra} on the
    subgraph induced by the vertices [first .. first + count - 1], which
    must contain [src]; entry [i] of the result is the distance to
    vertex [first + i]. Out-of-range arguments raise [Invalid_argument]. *)

val is_connected : t -> bool
(** True when every vertex is reachable from vertex 0 (true for the
    empty graph with a single vertex). A test seam: the [topology]
    "transit-stub shape" and "custom params" tests read it. *)
