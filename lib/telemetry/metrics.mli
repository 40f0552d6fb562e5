(** Process-wide metrics registry: named counters, gauges, and
    fixed-bucket histograms with percentile readout.

    Mirrors the shape of a Prometheus-style client: metrics are
    registered once by name (registration is idempotent — the same name
    returns the same metric) and mutated from anywhere; {!snapshot}
    reads the whole registry for rendering (see {!Report}).

    The registry is global because the quantities it tracks are global
    to the process: an experiment run is one process, and threading a
    registry through every construction call would put telemetry
    arguments on every hot path. Handles returned by {!counter} /
    {!gauge} / {!histogram} should be bound once (at module
    initialisation or loop set-up), after which mutation is a couple of
    machine instructions with no hashing or allocation. *)

type counter
type gauge
type histogram

val counter : string -> counter
(** Get-or-create a counter. Raises [Invalid_argument] when the name is
    already registered as a different metric kind. *)

val incr : counter -> unit

val add : counter -> int -> unit
(** [add c n] with [n >= 0]; raises [Invalid_argument] on negative. *)

val value : counter -> int
(** A test seam: the [net] "telemetry" test, the [replicated-store]
    tests and the [experiments] "registry" test read counters through
    it. *)

val gauge : string -> gauge
(** Get-or-create a gauge (a freely settable float, e.g. a population
    size or a configuration knob echoed into the export). *)

val set : gauge -> float -> unit

val histogram : ?buckets:float array -> string -> histogram
(** Get-or-create a fixed-bucket histogram. [buckets] are upper bounds,
    strictly increasing; ignored when the name already exists. Raises
    [Invalid_argument] on an empty or non-increasing bucket list. The
    default buckets are latency-style: 0.5, 1, 2.5, 5, 10, 25, 50, 100,
    250, 500, 1000, 2500, 5000, 10000. Observations above the last
    bound fall into an implicit overflow bucket. *)

val observe : histogram -> float -> unit

val percentile : histogram -> float -> float
(** [percentile h q] with [q] in \[0,1\]: the estimated value below
    which a fraction [q] of observations fall, by linear interpolation
    inside the bucket containing the rank. Estimates are clamped to the
    observed min/max, so exact for [q = 0] and [q = 1]; 0 when empty.
    The error is bounded by the width of one bucket. *)

type histogram_snapshot = {
  h_count : int;
  h_sum : float;
  h_min : float;  (** 0 when empty *)
  h_max : float;  (** 0 when empty *)
  p50 : float;
  p95 : float;
  p99 : float;
  bucket_bounds : float array;
  bucket_counts : int array;  (** one longer than bounds: overflow last *)
}

type snapshot = {
  counters : (string * int) list;  (** sorted by name *)
  gauges : (string * float) list;  (** sorted by name *)
  histograms : (string * histogram_snapshot) list;  (** sorted by name *)
}

val snapshot : unit -> snapshot

val reset : unit -> unit
(** Zero every registered metric (counts, sums, gauge values); names and
    bucket layouts stay registered. *)
