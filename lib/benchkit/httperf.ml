module Os = Fc_machine.Os
module Action = Fc_machine.Action
module Hyp = Fc_hypervisor.Hypervisor
module Facechange = Fc_core.Facechange
module App = Fc_apps.App

type result = {
  base_capacity : float;
  fc_capacity : float;
  cycles_per_second : float;
  series : (int * float) list;
}

let requests = 100

(* One request's kernel work, from the apache steady-state loop. *)
let request_actions =
  [
    Action.Syscall "epoll_wait:tcp"; Action.Syscall "accept:tcp";
    Action.Syscall "recv:tcp"; Action.Syscall "stat:ext4";
    Action.Syscall "open:ext4"; Action.Syscall "sendfile:tcp";
    Action.Syscall "send:tcp"; Action.Syscall "close"; Action.Syscall "close:tcp";
    Action.Compute 150_000; (* user-space request processing *)
  ]

let serve_batch ?engine ?layers profiles ~enabled =
  let app = App.find_exn "apache" in
  let config = { (App.os_config app) with Os.wake_delay = 2 } in
  let os = Os.create ~config ?engine (Profiles.image profiles) in
  let timed = Fc_obs.Layers.follow layers (Fc_obs.Obs.trace (Os.obs os)) in
  if enabled then begin
    let hyp = Hyp.attach os in
    let fc = Facechange.enable hyp in
    let (_ : int) = Facechange.load_view fc (Profiles.config_of profiles "apache") in
    ()
  end;
  let script =
    [ Action.Syscall "socket:tcp"; Action.Syscall "setsockopt:tcp";
      Action.Syscall "bind:tcp"; Action.Syscall "listen:tcp";
      Action.Syscall "epoll_create"; Action.Syscall "epoll_ctl" ]
    @ Action.repeat requests request_actions
    @ [ Action.Exit ]
  in
  let (_ : Fc_machine.Process.t) = Os.spawn os ~name:"apache" script in
  let before = Os.cycles os in
  timed (fun () -> Os.run os);
  (os, float_of_int (Os.cycles os - before) /. float_of_int requests)

let run ?(rates = List.init 12 (fun i -> 5 * (i + 1))) profiles =
  let _, per_req_base = serve_batch profiles ~enabled:false in
  let _, per_req_fc = serve_batch profiles ~enabled:true in
  (* calibrate the simulated clock so the baseline saturates at ~60.5
     req/s, matching the paper's testbed *)
  let cycles_per_second = per_req_base *. 60.5 in
  (* an empty run charges no cycles per request; keep the capacities (and
     the JSON artifact built from them) finite *)
  let base_capacity =
    if per_req_base <= 0. then 0. else cycles_per_second /. per_req_base
  in
  let fc_capacity =
    if per_req_fc <= 0. then 0. else cycles_per_second /. per_req_fc
  in
  let series =
    List.map
      (fun rate ->
        let r = float_of_int rate in
        let offered = Float.min r base_capacity in
        let ratio =
          if offered <= 0. then 1. else Float.min r fc_capacity /. offered
        in
        (rate, ratio))
      rates
  in
  { base_capacity; fc_capacity; cycles_per_second; series }

let render r =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    "Apache I/O throughput ratio: FACE-CHANGE enabled / disabled (cf. paper Fig. 7)\n";
  Buffer.add_string buf
    (Printf.sprintf
       "capacity: baseline %.1f req/s, FACE-CHANGE %.1f req/s (100 connections)\n\n"
       r.base_capacity r.fc_capacity);
  Buffer.add_string buf (Printf.sprintf "%-12s %s\n" "rate(req/s)" "throughput ratio");
  List.iter
    (fun (rate, ratio) ->
      Buffer.add_string buf (Printf.sprintf "%-12d %.3f\n" rate ratio))
    r.series;
  Buffer.contents buf
