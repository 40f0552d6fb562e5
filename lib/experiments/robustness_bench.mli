(** Robustness sweep over the message-level simulator ([canon_net]):
    lookup success rate and delivered latency vs the fraction of
    abruptly crashed nodes, under message loss, for flat Chord vs
    Crescendo on the transit-stub internet.

    Two measurements per failure fraction:
    - {e global}: random live-pair lookups with crashes injected
      uniformly — overall service degradation;
    - {e intra-domain}: lookups between members of one healthy depth-1
      domain with crashes injected outside it — the paper's §2.2 fault
      containment claim, now with real timeouts/retries instead of an
      oracle. Crescendo's intra-domain rate should stay ~1.0 while flat
      Chord's decays with the failure rate.

    Deterministic: a fixed [seed] fixes every crash set, loss draw and
    backoff jitter, so two runs render byte-identical tables. *)

val run : scale:Common.scale -> seed:int -> Canon_stats.Table.t
(** The default sweep: failure fractions 0/0.05/0.1/0.2/0.3 at 1%
    message loss. *)

val run_with :
  ?fail_fracs:float list ->
  ?loss:float ->
  ?n:int ->
  ?probes:int ->
  scale:Common.scale ->
  seed:int ->
  unit ->
  Canon_stats.Table.t
(** [run] with a custom failure-fraction list and loss probability
    (the CLI's [--fail-frac] / [--loss]); [n] / [probes] override the
    scale's population and probe count (the determinism regression test
    runs a small sweep twice and compares traces byte for byte). Raises
    [Invalid_argument] on a fraction or [loss] outside \[0, 1\] (NaN
    included), [n < 1] or [probes < 1]. *)
