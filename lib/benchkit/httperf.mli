(** The httperf-like Apache I/O experiment (Fig. 7).

    The apache workload serves a fixed batch of requests; measuring the
    simulated cycles per request with and without FACE-CHANGE gives the
    server's CPU capacity in each mode.  Offered load below the enabled
    capacity is served at ratio 1.0; past it, throughput is capacity-bound
    and the ratio dips — the paper's ~55 req/s threshold. *)

type result = {
  base_capacity : float;  (** requests/second, FACE-CHANGE disabled *)
  fc_capacity : float;    (** requests/second, FACE-CHANGE enabled *)
  cycles_per_second : float;
      (** simulated clock calibration: chosen so the baseline server
          saturates near the paper's 60 req/s testbed capacity *)
  series : (int * float) list;  (** (request rate, throughput ratio) *)
}

val requests : int
(** Requests per measurement batch (100, as in the paper). *)

val run : ?rates:int list -> Profiles.t -> result
(** Default rates: 5, 10, …, 60 req/s. *)

val render : result -> string

(**/**)

val request_actions : Fc_machine.Action.t list
(** One request's kernel work, from the apache steady-state loop. *)

val serve_batch :
  ?engine:Fc_machine.Os.engine ->
  ?layers:Fc_obs.Layers.t ->
  Profiles.t ->
  enabled:bool ->
  Fc_machine.Os.t * float
(** One apache guest serving {!requests} requests, with FACE-CHANGE and
    the apache view when [enabled]: the guest and its simulated cycles
    per request.  [layers] follows the guest and times its [Os.run]. *)

(**/**)
