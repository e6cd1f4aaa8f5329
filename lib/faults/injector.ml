module Os = Fc_machine.Os
module Process = Fc_machine.Process
module Hyp = Fc_hypervisor.Hypervisor
module Facechange = Fc_core.Facechange
module View = Fc_core.View
module View_config = Fc_profiler.View_config
module Phys = Fc_mem.Phys_mem
module Frame_cache = Fc_mem.Frame_cache
module Layout = Fc_kernel.Layout
module Image = Fc_kernel.Image
module Obs = Fc_obs.Obs
module Metrics = Fc_obs.Metrics
module Event = Fc_obs.Event

type t = {
  os : Os.t;
  hyp : Hyp.t;
  fc : Facechange.t;
  obs : Obs.t;
  plan : Fault.plan;
  switch_addr : int;
  injected_c : Metrics.counter;
  injected_f : Metrics.family; (* faults.injected{kind} *)
  bp_misses_c : Metrics.counter;
  config_rejects_c : Metrics.counter;
  validation_misses_c : Metrics.counter;
  mutable miss_budget : int; (* __switch_to breakpoints left to swallow *)
  mutable queue : Fault.kind list; (* in-context faults, FIFO *)
  mutable armed : bool;
}

let injected t = Metrics.value t.injected_c
let bp_misses t = Metrics.value t.bp_misses_c
let config_rejects t = Metrics.value t.config_rejects_c
let validation_misses t = Metrics.value t.validation_misses_c

let note t kind =
  Metrics.incr t.injected_c;
  Metrics.incr (Metrics.family_counter t.injected_f (Fault.kind_label kind));
  if Obs.armed t.obs then
    Obs.emit t.obs
      (Event.Fault_injected
         { fault = Fault.kind_label kind; detail = Fault.detail kind })

(* Map an abstract fraction onto an even kernel-text address.  Even keeps
   the injected UD2 pair in phase with the view fill pattern; the address
   may still land in inter-function padding, which exercises the
   "cannot locate kernel code" dead end on purpose. *)
let text_addr t frac =
  let image = Os.image t.os in
  let base = Image.text_base image in
  let len = Image.text_end image - base in
  (base + (frac * len / 10_000)) land lnot 1

let poke_u32 t gva v =
  let gpa = Layout.gva_to_gpa gva in
  match Os.ram_frame t.os ~gpa_page:(gpa / Layout.page_size) with
  | Some frame ->
      Phys.write_u32 (Os.phys t.os)
        ((frame * Layout.page_size) + (gpa mod Layout.page_size))
        v
  | None -> ()

(* Craft rbp chains deep in the current process's kernel stack — the
   region just above the stack base is never reached by the simulated
   dispatch depths, so the corruption is only ever read back by the
   backtrace walker. *)
let craft_base t =
  let top = Process.kstack_top (Os.current t.os) in
  top - Layout.kstack_size + 0x40

let inject_broken t frac =
  let eip = text_addr t frac in
  let ebp = craft_base t in
  poke_u32 t (ebp + 4) eip; (* a plausible kernel return address *)
  poke_u32 t ebp 0x1234; (* then the chain leaves the kernel range *)
  Os.inject_invalid_opcode t.os ~ebp ~eip ()

let inject_cyclic t frac =
  let eip = text_addr t frac in
  let e1 = craft_base t in
  let e2 = e1 + 0x40 in
  poke_u32 t (e1 + 4) eip;
  poke_u32 t e1 e2;
  poke_u32 t (e2 + 4) eip;
  poke_u32 t e2 e1; (* back-edge: e2 -> e1 *)
  Os.inject_invalid_opcode t.os ~ebp:e1 ~eip ()

let flip_view_byte t frac =
  match Facechange.views t.fc with
  | [] -> false (* nothing loaded; nothing to corrupt *)
  | views ->
      let v = List.nth views (frac mod List.length views) in
      let gva = text_addr t frac in
      (* the trapping byte pair: corruption stays inside the recoverable
         fault model (DESIGN.md §8) *)
      View.write_code v ~gva 0x0f;
      View.write_code v ~gva:(gva + 1) 0x0b;
      true

let truncated_config =
  "# facechange kernel view\n\
   app chaos\n\
   base 0xc0100000 0xc0100040\n\
   base 0xc0100060"

let overlapping_config =
  "# facechange kernel view\n\
   app chaos\n\
   base 0xc0100000 0xc0100080\n\
   base 0xc0100040 0xc01000c0"

let feed_config t text =
  match View_config.of_string text with
  | Error _ -> Metrics.incr t.config_rejects_c
  | Ok _ -> Metrics.incr t.validation_misses_c

(* Faults that must run in the context of the process being charged. *)
let apply_in_context t kind =
  match kind with
  | Fault.Spurious_ud2 { frac; _ } ->
      note t kind;
      Os.inject_invalid_opcode t.os ~eip:(text_addr t frac) ()
  | Fault.Broken_rbp { frac } ->
      note t kind;
      inject_broken t frac
  | Fault.Cyclic_rbp { frac } ->
      note t kind;
      inject_cyclic t frac
  | _ -> ()

(* Faults applied directly from the scheduler's round hook. *)
let apply_at_round t kind =
  match kind with
  | Fault.Spurious_ud2 { count; _ } ->
      (* one synthetic exit per upcoming guest action: a burst *)
      t.queue <- t.queue @ List.init count (fun _ -> kind)
  | Fault.Broken_rbp _ | Fault.Cyclic_rbp _ -> t.queue <- t.queue @ [ kind ]
  | Fault.Flip_view_byte { frac } -> if flip_view_byte t frac then note t kind
  | Fault.Evict_frames ->
      ignore (Frame_cache.evict_all (Hyp.frame_cache t.hyp));
      note t kind
  | Fault.Miss_breakpoints { count } ->
      t.miss_budget <- t.miss_budget + count;
      note t kind
  | Fault.Truncated_config ->
      feed_config t truncated_config;
      note t kind
  | Fault.Overlapping_config ->
      feed_config t overlapping_config;
      note t kind

let mk ~os ~hyp ~fc (plan : Fault.plan) =
  let m = Obs.metrics (Os.obs os) in
  (* registration order is the snapshot's METR order *)
  let validation_misses_c =
    Metrics.counter m ~subsystem:"faults" "validation_misses"
  in
  let config_rejects_c = Metrics.counter m ~subsystem:"faults" "config_rejects" in
  let bp_misses_c = Metrics.counter m ~subsystem:"faults" "bp_misses" in
  let injected_c = Metrics.counter m ~subsystem:"faults" "injected" in
  {
    os;
    hyp;
    fc;
    obs = Os.obs os;
    plan;
    switch_addr = Image.addr_of_exn (Os.image os) "__switch_to";
    injected_c;
    injected_f = Metrics.counter_family m ~subsystem:"faults" "injected";
    bp_misses_c;
    config_rejects_c;
    validation_misses_c;
    miss_budget = 0;
    queue = [];
    armed = true;
  }

let install_hooks t =
  Os.set_fault_hooks t.os
    (Some
       {
         Os.fh_trap_miss =
           (fun addr ->
             if t.armed && addr = t.switch_addr && t.miss_budget > 0 then begin
               t.miss_budget <- t.miss_budget - 1;
               Metrics.incr t.bp_misses_c;
               true
             end
             else false);
         Os.fh_pre_action =
           (fun () ->
             if t.armed then
               match t.queue with
               | [] -> ()
               | kind :: rest ->
                   t.queue <- rest;
                   apply_in_context t kind);
       })

(* Register the plan's round callbacks, skipping events at or before
   [after] (they fired before a snapshot was taken). *)
let schedule_events t ~after =
  List.iter
    (fun (e : Fault.event) ->
      if e.Fault.at_round > after then
        Os.schedule_at_round t.os e.Fault.at_round (fun _ ->
            if t.armed then apply_at_round t e.Fault.kind))
    t.plan.Fault.faults

let arm ~os ~hyp ~fc (plan : Fault.plan) =
  let t = mk ~os ~hyp ~fc plan in
  List.iter Metrics.reset
    [
      t.injected_c; t.bp_misses_c; t.config_rejects_c; t.validation_misses_c;
    ];
  Metrics.reset_family t.injected_f;
  install_hooks t;
  schedule_events t ~after:min_int;
  t

let disarm t =
  if t.armed then begin
    t.armed <- false;
    t.queue <- [];
    t.miss_budget <- 0;
    Os.set_fault_hooks t.os None
  end

(* ---------------- snapshot: cursor / rearm ---------------- *)

type cursor = {
  cu_seed : int;
  cu_events : Fault.event list;
  cu_position : int; (* last scheduler round executed before the snapshot *)
  cu_queue : Fault.kind list;
  cu_miss_budget : int;
}

let cursor t ~position =
  {
    cu_seed = t.plan.Fault.seed;
    cu_events = t.plan.Fault.faults;
    cu_position = position;
    cu_queue = t.queue;
    cu_miss_budget = t.miss_budget;
  }

let rearm ~os ~hyp ~fc (c : cursor) =
  let t = mk ~os ~hyp ~fc { Fault.seed = c.cu_seed; faults = c.cu_events } in
  t.queue <- c.cu_queue;
  t.miss_budget <- c.cu_miss_budget;
  (* no metric resets: the snapshot codec restores the faults.* counters
     after every layer is re-attached *)
  install_hooks t;
  (* rounds are absolute and [Os.thaw] restored the round counter, so
     events strictly after the cursor fire at their original rounds *)
  schedule_events t ~after:c.cu_position;
  t
