open Canon_overlay

type status = Delivered | Rerouted | Failed

type failure = No_candidate | Deadline | Hop_budget

type t = {
  status : status;
  failure : failure option;
  route : Route.t;
  wall_ms : float;
  messages : int;
  retries : int;
  timeouts : int;
  losses : int;
  reanchors : int;
}

let delivered t = match t.status with Delivered | Rerouted -> true | Failed -> false

let status_to_string = function
  | Delivered -> "delivered"
  | Rerouted -> "rerouted"
  | Failed -> "failed"

let failure_to_string = function
  | No_candidate -> "no-candidate"
  | Deadline -> "deadline"
  | Hop_budget -> "hop-budget"
