module Domain_tree = Canon_hierarchy.Domain_tree
module Rng = Canon_rng.Rng

type params = {
  transit_domains : int;
  transit_nodes_per_domain : int;
  stub_domains_per_transit_node : int;
  stub_routers_per_domain : int;
  transit_transit_ms : float;
  transit_stub_ms : float;
  stub_stub_ms : float;
  access_ms : float;
  extra_edge_fraction : float;
}

let default_params =
  {
    transit_domains = 10;
    transit_nodes_per_domain = 4;
    stub_domains_per_transit_node = 5;
    stub_routers_per_domain = 10;
    transit_transit_ms = 100.0;
    transit_stub_ms = 20.0;
    stub_stub_ms = 5.0;
    access_ms = 1.0;
    extra_edge_fraction = 0.5;
  }

type t = {
  params : params;
  graph : Graph.t;
  transit_count : int;
  stub_routers : int array;
  hierarchy : Domain_tree.t;
  leaves : int array; (* leaf domain of stub router index (vertex - transit_count) *)
  gateways : int array; (* the one router of each stub domain linked to its transit node *)
}

let validate p =
  if
    p.transit_domains < 1 || p.transit_nodes_per_domain < 1
    || p.stub_domains_per_transit_node < 1
    || p.stub_routers_per_domain < 1
  then invalid_arg "Transit_stub.generate: all counts must be >= 1";
  if p.extra_edge_fraction < 0.0 then
    invalid_arg "Transit_stub.generate: negative extra_edge_fraction"

(* Connect [members] into a random spanning tree plus
   [extra_edge_fraction * |members|] redundant random edges. *)
let connect_domain rng g members latency ~extra_fraction =
  let k = Array.length members in
  let order = Array.copy members in
  Rng.shuffle_in_place rng order;
  for i = 1 to k - 1 do
    let j = Rng.int_below rng i in
    Graph.add_edge g order.(i) order.(j) latency
  done;
  let extra = int_of_float (Float.of_int k *. extra_fraction) in
  let attempts = ref 0 in
  let added = ref 0 in
  (* Bounded rejection: in tiny domains every pair may already exist. *)
  while !added < extra && !attempts < 20 * (extra + 1) do
    incr attempts;
    let u = members.(Rng.int_below rng k) and v = members.(Rng.int_below rng k) in
    if u <> v && not (Graph.has_edge g u v) then begin
      Graph.add_edge g u v latency;
      incr added
    end
  done

let generate rng p =
  validate p;
  let transit_count = p.transit_domains * p.transit_nodes_per_domain in
  let stubs_per_transit_node = p.stub_domains_per_transit_node * p.stub_routers_per_domain in
  let stub_count = transit_count * stubs_per_transit_node in
  let n = transit_count + stub_count in
  let g = Graph.create n in
  (* 1. Transit nodes within each transit domain form a connected random
     graph over transit-transit links. *)
  for td = 0 to p.transit_domains - 1 do
    let members =
      Array.init p.transit_nodes_per_domain (fun i -> (td * p.transit_nodes_per_domain) + i)
    in
    connect_domain rng g members p.transit_transit_ms ~extra_fraction:p.extra_edge_fraction
  done;
  (* 2. The transit domains themselves form a connected backbone: a
     random spanning tree over domains plus some redundancy; a
     domain-level edge links a random transit node of each side. *)
  let random_transit_node rng td =
    (td * p.transit_nodes_per_domain) + Rng.int_below rng p.transit_nodes_per_domain
  in
  let dom_order = Array.init p.transit_domains Fun.id in
  Rng.shuffle_in_place rng dom_order;
  for i = 1 to p.transit_domains - 1 do
    let j = Rng.int_below rng i in
    let u = random_transit_node rng dom_order.(i) and v = random_transit_node rng dom_order.(j) in
    if not (Graph.has_edge g u v) then Graph.add_edge g u v p.transit_transit_ms
    else begin
      (* Extremely unlikely collision with an intra-domain edge pattern;
         retry with fresh endpoints. *)
      let u' = random_transit_node rng dom_order.(i) and v' = random_transit_node rng dom_order.(j) in
      if not (Graph.has_edge g u' v') then Graph.add_edge g u' v' p.transit_transit_ms
    end
  done;
  if p.transit_domains > 2 then begin
    let extra = int_of_float (Float.of_int p.transit_domains *. p.extra_edge_fraction) in
    let added = ref 0 and attempts = ref 0 in
    while !added < extra && !attempts < 20 * (extra + 1) do
      incr attempts;
      let a = Rng.int_below rng p.transit_domains and b = Rng.int_below rng p.transit_domains in
      if a <> b then begin
        let u = random_transit_node rng a and v = random_transit_node rng b in
        if not (Graph.has_edge g u v) then begin
          Graph.add_edge g u v p.transit_transit_ms;
          incr added
        end
      end
    done
  end;
  (* 3. Stub domains: each transit node carries its quota of stub
     domains; each stub domain is internally connected over stub-stub
     links and attached to its transit node by a transit-stub link. *)
  let gateways = Array.make (transit_count * p.stub_domains_per_transit_node) 0 in
  for tn = 0 to transit_count - 1 do
    for sd = 0 to p.stub_domains_per_transit_node - 1 do
      let base =
        transit_count
        + (tn * stubs_per_transit_node)
        + (sd * p.stub_routers_per_domain)
      in
      let members = Array.init p.stub_routers_per_domain (fun i -> base + i) in
      connect_domain rng g members p.stub_stub_ms ~extra_fraction:p.extra_edge_fraction;
      let gateway = members.(Rng.int_below rng p.stub_routers_per_domain) in
      Graph.add_edge g tn gateway p.transit_stub_ms;
      gateways.((tn * p.stub_domains_per_transit_node) + sd) <- gateway
    done
  done;
  (* 4. The induced five-level hierarchy: root / transit domain /
     transit node / stub domain / stub router. Leaves appear in exactly
     the same left-to-right order as stub-router vertices. *)
  let leaf = Domain_tree.Leaf in
  let stub_domain_spec = Domain_tree.Node (List.init p.stub_routers_per_domain (fun _ -> leaf)) in
  let transit_node_spec =
    Domain_tree.Node (List.init p.stub_domains_per_transit_node (fun _ -> stub_domain_spec))
  in
  let transit_domain_spec =
    Domain_tree.Node (List.init p.transit_nodes_per_domain (fun _ -> transit_node_spec))
  in
  let root_spec = Domain_tree.Node (List.init p.transit_domains (fun _ -> transit_domain_spec)) in
  let hierarchy = Domain_tree.of_spec root_spec in
  let leaves = Domain_tree.leaves hierarchy in
  assert (Array.length leaves = stub_count);
  {
    params = p;
    graph = g;
    transit_count;
    stub_routers = Array.init stub_count (fun i -> transit_count + i);
    hierarchy;
    leaves;
    gateways;
  }

let params t = t.params

let graph t = t.graph

let num_routers t = Graph.num_vertices t.graph

let transit_count t = t.transit_count

let stub_routers t = t.stub_routers

let hierarchy t = t.hierarchy

let stub_router_of_leaf t leaf =
  (* Leaves array is sorted in left-to-right order matching vertices. *)
  let rec search lo hi =
    if lo > hi then invalid_arg "Transit_stub.stub_router_of_leaf: unknown leaf"
    else
      let mid = (lo + hi) / 2 in
      if t.leaves.(mid) = leaf then t.transit_count + mid
      else if t.leaves.(mid) < leaf then search (mid + 1) hi
      else search lo (mid - 1)
  in
  search 0 (Array.length t.leaves - 1)

let stub_domain_count t = Array.length t.gateways

let stub_domain t v =
  if v < t.transit_count || v >= num_routers t then
    invalid_arg "Transit_stub.stub_domain: not a stub router";
  (v - t.transit_count) / t.params.stub_routers_per_domain

let stub_domain_routers t d =
  let k = t.params.stub_routers_per_domain in
  if d < 0 || d >= stub_domain_count t then invalid_arg "Transit_stub: no such stub domain";
  (t.transit_count + (d * k), k)

let gateway t d = t.gateways.(d)

let domain_transit_node t d =
  ignore (stub_domain_routers t d);
  d / t.params.stub_domains_per_transit_node
