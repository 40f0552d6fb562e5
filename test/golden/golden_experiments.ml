(* The experiments whose tables are pinned at seed 42, in the bench
   harness's order: every one except [latency] (its table holds wall
   times) and [micro] (Bechamel). *)

open Canon_experiments

let all =
  [
    ("fig3", Fig3.run);
    ("fig4", Fig4.run);
    ("fig5", Fig5.run);
    ("fig6", Fig6.run);
    ("fig7", Fig7.run);
    ("fig8", Fig8.run);
    ("fig9", Fig9.run);
    ("theorems", Theorems.run);
    ("variants", Variants.run);
    ("lookahead", Lookahead_bench.run);
    ("balance", Balance_bench.run);
    ("maintenance", Maintenance_bench.run);
    ("caching", Caching_bench.run);
    ("isolation", Isolation.run);
    ("hybrid", Hybrid_bench.run);
    ("prefixcan", Prefix_can_bench.run);
    ("skipnet", Skipnet_bench.run);
    ("robustness", Robustness_bench.run);
    ("durability", Durability.run);
    ("churn_async", Churn_async.run);
  ]
