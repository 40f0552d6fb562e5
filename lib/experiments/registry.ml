type t = {
  name : string;
  doc : string;
  run : scale:Common.scale -> seed:int -> Canon_stats.Table.t;
  pinned : bool;
}

let v ?(pinned = true) name doc run = { name; doc; run; pinned }

let all =
  [
    v "fig3" "Figure 3: average #links/node vs network size." Fig3.run;
    v "fig4" "Figure 4: PDF of #links/node at 32K nodes." Fig4.run;
    v "fig5" "Figure 5: average routing hops vs network size." Fig5.run;
    v "fig6" "Figure 6: latency and stretch on the transit-stub internet." Fig6.run;
    v "fig7" "Figure 7: latency vs query locality." Fig7.run;
    v "fig8" "Figure 8: path overlap fraction vs domain level." Fig8.run;
    v "fig9" "Figure 9: inter-domain links in a 1000-source multicast tree." Fig9.run;
    v "theorems" "Empirical check of Theorems 1/2/4/5." Theorems.run;
    v "variants"
      "Degree/hops parity of all flat vs Canonical DHT pairs (Chord, Symphony, ND-Chord, \
       Kademlia, CAN)."
      Variants.run;
    v "lookahead" "Greedy vs 1-lookahead routing on Symphony/Cacophony." Lookahead_bench.run;
    v "balance" "Partition balance: random vs bisection vs hierarchical." Balance_bench.run;
    v "maintenance" "Join/leave message cost and probe success under churn."
      Maintenance_bench.run;
    v "caching" "Hierarchical caching hit rate and latency." Caching_bench.run;
    v "isolation" "Fault isolation: intra-domain delivery under outside failures."
      Isolation.run;
    v "hybrid" "LAN-clique + Crescendo hybrid structure ablation." Hybrid_bench.run;
    v "prefixcan" "Prefix-tree CAN vs XOR-bucket CAN parity." Prefix_can_bench.run;
    v "skipnet" "SkipNet vs Crescendo: locality and convergence (sec. 6)." Skipnet_bench.run;
    v "robustness"
      "Message-level robustness: lookup success and latency vs crashed-node fraction under \
       loss, timeouts and retries (canon_net)."
      Robustness_bench.run;
    v "durability"
      "Data durability: keys-surviving fraction vs crashed-node fraction and a whole-domain \
       outage, flat successor-replication vs hierarchical sibling-spread."
      Durability.run;
    v "churn_async"
      "Churn x async: lookup success and p50/p99 wall-clock during live churn — joins, \
       leaves and in-flight RPC hops on one event queue, Chord vs Crescendo live membership."
      Churn_async.run;
    v "latency" ~pinned:false
      "Latency-oracle setup and query cost, and its exactness against Dijkstra."
      Latency_bench.run;
  ]

let run t ~scale ~seed =
  Canon_telemetry.Metrics.reset ();
  t.run ~scale ~seed
