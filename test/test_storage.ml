(* Tests for hierarchical storage, access control and caching (§4). *)

open Canon_idspace
open Canon_hierarchy
open Canon_overlay
open Canon_core
open Canon_storage
module Rng = Canon_rng.Rng

let fixture =
  lazy
    (let rng = Rng.create 77 in
     let tree = Domain_tree.of_spec (Domain_tree.uniform_spec ~fanout:4 ~levels:3) in
     let pop = Population.create rng ~tree ~policy:(Placement.Zipfian 1.25) ~n:800 in
     let rings = Rings.build pop in
     let overlay = Crescendo.build rings in
     (pop, rings, overlay))

let test_insert_and_lookup_global () =
  let pop, rings, overlay = Lazy.force fixture in
  let store = Store.create rings in
  let root = Domain_tree.root pop.Population.tree in
  let rng = Rng.create 3 in
  for i = 0 to 30 do
    let publisher = Rng.int_below rng (Population.size pop) in
    let key = Id.random rng in
    let value = Printf.sprintf "v%d" i in
    Store.insert store ~publisher ~key ~value ~storage_domain:root ~access_domain:root;
    let querier = Rng.int_below rng (Population.size pop) in
    match Store.lookup store overlay ~querier ~key with
    | None -> Alcotest.fail "global content not found"
    | Some hit ->
        Alcotest.(check string) "value" value hit.Store.value;
        Alcotest.(check (option int)) "no pointer" None hit.Store.via_pointer;
        Alcotest.(check int) "found at responsible node"
          (Store.storage_node store ~domain:root ~key)
          hit.Store.found_at
  done

let test_storage_placement_rule () =
  (* Content must live at the node of the storage domain with the
     largest id <= key. *)
  let pop, rings, _ = Lazy.force fixture in
  let store = Store.create rings in
  let rng = Rng.create 5 in
  for _ = 1 to 50 do
    let publisher = Rng.int_below rng (Population.size pop) in
    let domain = Population.domain_of_node_at_depth pop publisher 1 in
    let key = Id.random rng in
    let holder = Store.storage_node store ~domain ~key in
    (* holder is in the domain and no domain member is closer below key *)
    let ring = Rings.ring rings domain in
    Alcotest.(check int) "paper's responsibility rule"
      (Ring.predecessor_of_id ring key) holder
  done

let test_local_lookup_stays_in_domain () =
  (* "a query for content stored locally in a domain never leaves the
     domain" (§4.1) *)
  let pop, rings, overlay = Lazy.force fixture in
  let store = Store.create rings in
  let tree = pop.Population.tree in
  let rng = Rng.create 7 in
  for _ = 1 to 60 do
    let publisher = Rng.int_below rng (Population.size pop) in
    let domain = Population.domain_of_node_at_depth pop publisher 1 in
    let key = Id.random rng in
    Store.insert store ~publisher ~key ~value:"local" ~storage_domain:domain
      ~access_domain:domain;
    (* querier from the same domain *)
    let ring = Rings.ring rings domain in
    let querier = Ring.node_at ring (Rng.int_below rng (Ring.size ring)) in
    (match Store.lookup store overlay ~querier ~key with
    | None -> Alcotest.fail "local content not found"
    | Some hit ->
        Array.iter
          (fun node ->
            if
              not
                (Domain_tree.is_ancestor tree ~anc:domain
                   ~desc:pop.Population.leaf_of_node.(node))
            then Alcotest.fail "local query left the domain")
          hit.Store.path.Route.nodes);
    Store.remove store ~key ~storage_domain:domain ~access_domain:domain
  done

let test_access_control () =
  (* A querier outside the access domain must not see the content. *)
  let pop, rings, overlay = Lazy.force fixture in
  let store = Store.create rings in
  let tree = pop.Population.tree in
  let rng = Rng.create 9 in
  let checked = ref 0 in
  while !checked < 40 do
    let publisher = Rng.int_below rng (Population.size pop) in
    let domain = Population.domain_of_node_at_depth pop publisher 1 in
    let key = Id.random rng in
    Store.insert store ~publisher ~key ~value:"secret" ~storage_domain:domain
      ~access_domain:domain;
    let outsider = Rng.int_below rng (Population.size pop) in
    if not (Domain_tree.is_ancestor tree ~anc:domain ~desc:pop.Population.leaf_of_node.(outsider))
    then begin
      incr checked;
      (match Store.lookup store overlay ~querier:outsider ~key with
      | None -> ()
      | Some hit -> Alcotest.failf "outsider retrieved %S" hit.Store.value)
    end;
    Store.remove store ~key ~storage_domain:domain ~access_domain:domain
  done

let test_pointer_indirection () =
  (* storage domain strictly inside access domain: queries from the
     access domain but outside the storage domain resolve a pointer. *)
  let pop, rings, overlay = Lazy.force fixture in
  let store = Store.create rings in
  let tree = pop.Population.tree in
  let rng = Rng.create 11 in
  let done_ = ref 0 in
  while !done_ < 30 do
    let publisher = Rng.int_below rng (Population.size pop) in
    let storage_domain = Population.domain_of_node_at_depth pop publisher 2 in
    let access_domain = Population.domain_of_node_at_depth pop publisher 1 in
    if storage_domain <> access_domain then begin
      let key = Id.random rng in
      Store.insert store ~publisher ~key ~value:"shared" ~storage_domain ~access_domain;
      (* querier inside the access domain but outside the storage domain *)
      let ring = Rings.ring rings access_domain in
      let querier = Ring.node_at ring (Rng.int_below rng (Ring.size ring)) in
      let q_in_storage =
        Domain_tree.is_ancestor tree ~anc:storage_domain
          ~desc:pop.Population.leaf_of_node.(querier)
      in
      if not q_in_storage then begin
        incr done_;
        match Store.lookup store overlay ~querier ~key with
        | None -> Alcotest.fail "content not visible inside access domain"
        | Some hit ->
            Alcotest.(check string) "resolved value" "shared" hit.Store.value;
            (match hit.Store.via_pointer with
            | Some holder ->
                Alcotest.(check int) "pointer resolves to the storage node"
                  (Store.storage_node store ~domain:storage_domain ~key)
                  holder
            | None ->
                (* legitimate when the access-domain responsible node is
                   itself on the storage path *)
                ())
      end;
      Store.remove store ~key ~storage_domain ~access_domain
    end
  done

(* What a single node on a route would answer: the holder answers with
   the content, the access domain's responsible node with the pointer
   resolved, each with the pair's access domain; a querier outside the
   access domain and a node holding nothing get [None]. *)
let test_probe () =
  let pop, rings, _ = Lazy.force fixture in
  let store = Store.create rings in
  let tree = pop.Population.tree in
  let rng = Rng.create 17 in
  let rec publisher () =
    let p = Rng.int_below rng (Population.size pop) in
    if Population.domain_of_node_at_depth pop p 2 <> Population.domain_of_node_at_depth pop p 1
    then p
    else publisher ()
  in
  let publisher = publisher () in
  let storage_domain = Population.domain_of_node_at_depth pop publisher 2 in
  let access_domain = Population.domain_of_node_at_depth pop publisher 1 in
  let key = Id.random rng in
  Store.insert store ~publisher ~key ~value:"v" ~storage_domain ~access_domain;
  let holder = Store.storage_node store ~domain:storage_domain ~key in
  let pointer = Store.storage_node store ~domain:access_domain ~key in
  let inside d v = Domain_tree.is_ancestor tree ~anc:d ~desc:pop.Population.leaf_of_node.(v) in
  let probe querier node = Store.probe store ~querier ~key ~node in
  Alcotest.(check (option (pair string int))) "holder answers its own storage domain"
    (Some ("v", access_domain)) (probe publisher holder);
  Alcotest.(check (option (pair string int))) "pointer resolves" (Some ("v", access_domain))
    (probe publisher pointer);
  let outsider =
    Array.find_opt (fun v -> not (inside access_domain v)) (Array.init (Population.size pop) Fun.id)
  in
  (match outsider with
  | None -> Alcotest.fail "no node outside the access domain"
  | Some q ->
      Alcotest.(check (option (pair string int))) "outsider sees nothing at the holder" None
        (probe q holder);
      Alcotest.(check (option (pair string int))) "outsider sees nothing at the pointer" None
        (probe q pointer));
  let bystander =
    Array.find_opt
      (fun v -> v <> holder && v <> pointer)
      (Array.init (Population.size pop) Fun.id)
  in
  Alcotest.(check (option (pair string int))) "a node holding nothing" None
    (probe publisher (Option.get bystander));
  Store.remove store ~key ~storage_domain ~access_domain;
  Alcotest.(check (option (pair string int))) "gone after remove" None (probe publisher holder)

let test_insert_validation () =
  let pop, rings, _ = Lazy.force fixture in
  let store = Store.create rings in
  let tree = pop.Population.tree in
  (* pick a publisher and a domain that does not contain it *)
  let publisher = 0 in
  let leaf = pop.Population.leaf_of_node.(publisher) in
  let foreign =
    let leaves = Domain_tree.leaves tree in
    let other = Array.to_list leaves |> List.find (fun l -> l <> leaf) in
    other
  in
  Alcotest.(check bool) "foreign storage rejected" true
    (try
       Store.insert store ~publisher ~key:1 ~value:"x" ~storage_domain:foreign
         ~access_domain:foreign;
       false
     with Invalid_argument _ -> true);
  (* access domain must contain the storage domain *)
  Alcotest.(check bool) "inverted domains rejected" true
    (try
       Store.insert store ~publisher ~key:1 ~value:"x"
         ~storage_domain:(Domain_tree.root tree) ~access_domain:leaf;
       false
     with Invalid_argument _ -> true)

let test_remove () =
  let pop, rings, overlay = Lazy.force fixture in
  let store = Store.create rings in
  let root = Domain_tree.root pop.Population.tree in
  let key = 12345 in
  Store.insert store ~publisher:0 ~key ~value:"gone" ~storage_domain:root ~access_domain:root;
  Store.remove store ~key ~storage_domain:root ~access_domain:root;
  Alcotest.(check bool) "removed" true
    (Store.lookup store overlay ~querier:(Population.size pop / 2) ~key = None)

(* --- Cache --------------------------------------------------------- *)

let test_cache_proxy_is_predecessor () =
  let _pop, rings, _ = Lazy.force fixture in
  let cache = Cache.create rings ~capacity:8 in
  let rng = Rng.create 15 in
  for _ = 1 to 50 do
    let key = Id.random rng in
    let domain = Rng.int_below rng (Domain_tree.num_domains (Rings.population rings).Population.tree) in
    let ring = Rings.ring rings domain in
    if Ring.size ring > 0 then
      Alcotest.(check int) "proxy = closest predecessor" (Ring.predecessor_of_id ring key)
        (Cache.proxy cache ~domain ~key)
  done

let test_cache_hit_after_miss () =
  let pop, rings, overlay = Lazy.force fixture in
  let store = Store.create rings in
  let cache = Cache.create rings ~capacity:16 in
  let root = Domain_tree.root pop.Population.tree in
  let rng = Rng.create 17 in
  let key = Id.random rng in
  Store.insert store ~publisher:0 ~key ~value:"cacheme" ~storage_domain:root ~access_domain:root;
  (* first query misses the cache; pick a querier whose depth-1 domain
     differs from the responsible node's, so there is a level to cache
     at. *)
  let responsible = Store.storage_node store ~domain:root ~key in
  let q1 =
    let rec pick () =
      let q = Rng.int_below rng (Population.size pop) in
      if
        Population.domain_of_node_at_depth pop q 1
        <> Population.domain_of_node_at_depth pop responsible 1
      then q
      else pick ()
    in
    pick ()
  in
  (match Cache.query cache store overlay ~querier:q1 ~key with
  | Some r ->
      Alcotest.(check bool) "first query not cached" false r.Cache.served_from_cache;
      Alcotest.(check string) "value" "cacheme" r.Cache.value
  | None -> Alcotest.fail "first query failed");
  (* ...a second query from the same leaf domain hits a proxy cache at
     (at worst) the same path cost; from the SAME node it must hit. *)
  match Cache.query cache store overlay ~querier:q1 ~key with
  | Some r2 -> Alcotest.(check bool) "repeat query served from cache" true r2.Cache.served_from_cache
  | None -> Alcotest.fail "second query failed"

let test_cache_shortens_paths_under_locality () =
  let pop, rings, overlay = Lazy.force fixture in
  let store = Store.create rings in
  let cache = Cache.create rings ~capacity:64 in
  let root = Domain_tree.root pop.Population.tree in
  let rng = Rng.create 19 in
  let key = Id.random rng in
  Store.insert store ~publisher:0 ~key ~value:"popular" ~storage_domain:root ~access_domain:root;
  (* prime the caches from one node, then query from many nodes of the
     same depth-1 domain: mean path length must shrink vs uncached. *)
  let domain = Population.domain_of_node_at_depth pop 0 1 in
  let ring = Rings.ring rings domain in
  let q0 = Ring.node_at ring 0 in
  ignore (Cache.query cache store overlay ~querier:q0 ~key);
  let cached_hops = ref 0 and plain_hops = ref 0 and trials = 30 in
  for i = 1 to trials do
    let q = Ring.node_at ring (i mod Ring.size ring) in
    (match Cache.query cache store overlay ~querier:q ~key with
    | Some r -> cached_hops := !cached_hops + Route.hops r.Cache.path
    | None -> Alcotest.fail "cached query failed");
    match Store.lookup store overlay ~querier:q ~key with
    | Some h -> plain_hops := !plain_hops + Route.hops h.Store.path
    | None -> Alcotest.fail "plain query failed"
  done;
  Alcotest.(check bool)
    (Printf.sprintf "cached %d < plain %d" !cached_hops !plain_hops)
    true
    (!cached_hops <= !plain_hops)

let test_cache_eviction_prefers_deep_levels () =
  let _pop, rings, _ = Lazy.force fixture in
  let cache = Cache.create rings ~capacity:2 in
  ignore cache;
  (* The eviction order is exercised indirectly: fill a tiny cache via
     query traffic and check capacity is never exceeded. *)
  let pop, rings, overlay = Lazy.force fixture in
  let store = Store.create rings in
  let cache = Cache.create rings ~capacity:2 in
  let root = Domain_tree.root pop.Population.tree in
  let rng = Rng.create 21 in
  for i = 0 to 20 do
    let key = Id.random rng in
    Store.insert store ~publisher:(i mod Population.size pop) ~key
      ~value:(string_of_int i) ~storage_domain:root ~access_domain:root;
    ignore (Cache.query cache store overlay ~querier:(Rng.int_below rng (Population.size pop)) ~key)
  done;
  for node = 0 to Population.size pop - 1 do
    if Cache.entries cache ~node > 2 then Alcotest.fail "capacity exceeded"
  done

let test_cache_capacity_zero () =
  let pop, rings, overlay = Lazy.force fixture in
  let store = Store.create rings in
  let cache = Cache.create rings ~capacity:0 in
  let root = Domain_tree.root pop.Population.tree in
  let key = 999 in
  Store.insert store ~publisher:0 ~key ~value:"nocache" ~storage_domain:root ~access_domain:root;
  ignore (Cache.query cache store overlay ~querier:1 ~key);
  match Cache.query cache store overlay ~querier:1 ~key with
  | Some r -> Alcotest.(check bool) "never cached" false r.Cache.served_from_cache
  | None -> Alcotest.fail "query failed"

let suites =
  [
    ( "store",
      [
        Alcotest.test_case "global insert/lookup" `Quick test_insert_and_lookup_global;
        Alcotest.test_case "placement rule" `Quick test_storage_placement_rule;
        Alcotest.test_case "local lookup stays in domain" `Quick test_local_lookup_stays_in_domain;
        Alcotest.test_case "access control" `Quick test_access_control;
        Alcotest.test_case "pointer indirection" `Quick test_pointer_indirection;
        Alcotest.test_case "insert validation" `Quick test_insert_validation;
        Alcotest.test_case "remove" `Quick test_remove;
        Alcotest.test_case "probe" `Quick test_probe;
      ] );
    ( "cache",
      [
        Alcotest.test_case "proxy = predecessor" `Quick test_cache_proxy_is_predecessor;
        Alcotest.test_case "hit after miss" `Quick test_cache_hit_after_miss;
        Alcotest.test_case "locality shortens paths" `Quick test_cache_shortens_paths_under_locality;
        Alcotest.test_case "eviction respects capacity" `Quick test_cache_eviction_prefers_deep_levels;
        Alcotest.test_case "capacity zero" `Quick test_cache_capacity_zero;
      ] );
  ]

(* --- Exactness of access control (property) ------------------------ *)

(* For EVERY (publisher, storage depth, access depth, querier) drawn at
   random: the querier retrieves the content if and only if it lies
   inside the access domain — the paper's §4.1 guarantee, exactly. *)
let prop_access_control_exact =
  QCheck.Test.make ~count:150 ~name:"store: visible iff querier inside access domain"
    QCheck.(int_range 1 1_000_000)
    (fun case_seed ->
      let pop, rings, overlay = Lazy.force fixture in
      let store = Store.create rings in
      let tree = pop.Population.tree in
      let rng = Rng.create case_seed in
      let n = Population.size pop in
      let publisher = Rng.int_below rng n in
      let max_depth = Domain_tree.depth tree pop.Population.leaf_of_node.(publisher) in
      let access_depth = Rng.int_below rng (max_depth + 1) in
      let storage_depth = access_depth + Rng.int_below rng (max_depth - access_depth + 1) in
      let storage_domain = Population.domain_of_node_at_depth pop publisher storage_depth in
      let access_domain = Population.domain_of_node_at_depth pop publisher access_depth in
      let key = Id.random rng in
      Store.insert store ~publisher ~key ~value:"x" ~storage_domain ~access_domain;
      let querier = Rng.int_below rng n in
      let entitled =
        Domain_tree.is_ancestor tree ~anc:access_domain
          ~desc:pop.Population.leaf_of_node.(querier)
      in
      let got = Store.lookup store overlay ~querier ~key <> None in
      Store.remove store ~key ~storage_domain ~access_domain;
      got = entitled)

(* The cache must never leak either: a cached copy obeys the same rule. *)
let prop_cache_respects_access_control =
  QCheck.Test.make ~count:60 ~name:"cache: never serves outside the access domain"
    QCheck.(int_range 1 1_000_000)
    (fun case_seed ->
      let pop, rings, overlay = Lazy.force fixture in
      let store = Store.create rings in
      let cache = Cache.create rings ~capacity:32 in
      let tree = pop.Population.tree in
      let rng = Rng.create (case_seed + 7) in
      let n = Population.size pop in
      let publisher = Rng.int_below rng n in
      let access_domain = Population.domain_of_node_at_depth pop publisher 1 in
      let key = Id.random rng in
      Store.insert store ~publisher ~key ~value:"secret" ~storage_domain:access_domain
        ~access_domain;
      (* warm caches from entitled queriers *)
      let ring = Rings.ring rings access_domain in
      for _ = 1 to 5 do
        let q = Ring.node_at ring (Rng.int_below rng (Ring.size ring)) in
        ignore (Cache.query cache store overlay ~querier:q ~key)
      done;
      (* outsiders must still see nothing *)
      let ok = ref true in
      for _ = 1 to 10 do
        let q = Rng.int_below rng n in
        let entitled =
          Domain_tree.is_ancestor tree ~anc:access_domain
            ~desc:pop.Population.leaf_of_node.(q)
        in
        match Cache.query cache store overlay ~querier:q ~key with
        | Some _ when not entitled -> ok := false
        | Some _ | None -> ()
      done;
      !ok)

let storage_property_suites =
  [
    ( "storage-properties",
      [
        QCheck_alcotest.to_alcotest prop_access_control_exact;
        QCheck_alcotest.to_alcotest prop_cache_respects_access_control;
      ] );
  ]

let suites = suites @ storage_property_suites
