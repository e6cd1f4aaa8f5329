module Hyp = Fc_hypervisor.Hypervisor
module Cost = Fc_hypervisor.Cost
module Os = Fc_machine.Os
module Cpu = Fc_machine.Cpu
module Process = Fc_machine.Process
module Layout = Fc_kernel.Layout
module Image = Fc_kernel.Image
module Ept = Fc_mem.Ept
module Scan = Fc_isa.Scan
module Obs = Fc_obs.Obs
module Metrics = Fc_obs.Metrics
module Event = Fc_obs.Event

type opts = {
  switch_at_resume : bool;
  same_view_opt : bool;
  whole_function_load : bool;
  instant_recovery : bool;
  share_frames : bool;
}

let default_opts =
  {
    switch_at_resume = true;
    same_view_opt = true;
    whole_function_load = true;
    instant_recovery = true;
    share_frames = true;
  }

let full_view_index = 0

type t = {
  hyp : Hyp.t;
  obs : Obs.t;
  opts : opts;
  mutable views : View.t list;
  mutable bindings : (string * int) list;
  mutable next_index : int;
  active : int array;           (* active view index, per vCPU *)
  pending : int option array;   (* deferred switch armed at resume, per vCPU *)
  ctx_switch_addr : int;
  resume_addr : int;
  all_dirs : int list;
  log : Recovery_log.t;
  switches : Metrics.counter;
  switch_skips : Metrics.counter;
  deferred : Metrics.counter;
  recoveries : Metrics.counter;
  recovered_bytes : Metrics.counter;
  recovery_bytes_h : Metrics.histogram;
  view_build_cycles : Metrics.histogram;
  (* per-app attribution: one member per comm, summing to the globals *)
  switches_f : Metrics.family; (* fc.view_switches{comm} *)
  recoveries_f : Metrics.family; (* fc.recoveries{comm} *)
  recovered_bytes_f : Metrics.family; (* fc.recovered_bytes{comm} *)
  mutable retired_cow_breaks : int;  (* from views since unloaded *)
  (* degradation governor (None = the paper's die-on-unhandled behavior) *)
  governor : Governor.t option;
  saved_bindings : (string, int) Hashtbl.t; (* narrow index while degraded *)
  storms : Metrics.counter;
  degraded_c : Metrics.counter;
  renarrowed_c : Metrics.counter;
  quarantined_c : Metrics.counter;
  broken_walks : Metrics.counter;
  tolerated : Metrics.counter;
  degraded_f : Metrics.family; (* fc.degradations{comm} *)
  mutable enabled : bool;
}

(* The simulator's ground truth for "who pays": the task currently on the
   active vCPU.  Cheaper than the VMI read and always in agreement with
   the run-slice accounting in [Os]. *)
let current_comm t = (Os.current (Hyp.os t.hyp)).Process.name

let span_enter t kind =
  if Obs.armed t.obs then begin
    let os = Hyp.os t.hyp in
    let cur = Os.current os in
    Fc_obs.Span.enter (Obs.spans t.obs) ~vid:(Os.active_vcpu_id os)
      ~pid:cur.Process.pid ~comm:cur.Process.name kind
  end
  else Fc_obs.Span.none

let span_exit t sid = Fc_obs.Span.exit (Obs.spans t.obs) sid

let hyp t = t.hyp
let log t = t.log
let opts t = t.opts
let views t = t.views
let find_view t index = List.find_opt (fun v -> View.index v = index) t.views
let active_index ?(vid = 0) t = t.active.(vid)
let switches t = Metrics.value t.switches
let switch_skips t = Metrics.value t.switch_skips
let deferred_switches t = Metrics.value t.deferred
let recoveries t = Metrics.value t.recoveries
let recovered_bytes t = Metrics.value t.recovered_bytes
let governor t = t.governor
let storms t = Metrics.value t.storms
let degradations t = Metrics.value t.degraded_c
let renarrows t = Metrics.value t.renarrowed_c
let quarantines t = Metrics.value t.quarantined_c
let broken_backtraces t = Metrics.value t.broken_walks
let tolerated_faults t = Metrics.value t.tolerated

let shared_frames t =
  List.fold_left
    (fun n v -> n + View.private_page_count v - View.frame_count v)
    0 t.views

let cow_breaks t =
  List.fold_left (fun n v -> n + View.cow_breaks v) t.retired_cow_breaks t.views

let selector t ~comm =
  match List.assoc_opt comm t.bindings with Some i -> i | None -> full_view_index

let bind t ~comm ~index =
  t.bindings <- (comm, index) :: List.remove_assoc comm t.bindings

let unbind t ~comm = t.bindings <- List.remove_assoc comm t.bindings

(* ---------------- view switching (per-vCPU, the paper's SV-C) ------- *)

(* Install a view's directory entries on one vCPU (VPID-style): quiet
   directory installs plus one active-tag change.  Nothing is flushed —
   translations cached under [to_index] in an earlier activation still
   carry its current (view, generation) tag and revalidate by compare. *)
let install_tables t ~vid ~to_index tables =
  let ept = Os.ept_of (Hyp.os t.hyp) ~vid in
  List.iter
    (fun (dir, table) ->
      Ept.install_dir ept ~dir (Some table);
      Hyp.charge t.hyp Cost.ept_dir_switch)
    tables;
  Ept.set_view ept ~view:to_index

let emit_switch t ~vid ~from_index ~to_index outcome =
  if Obs.armed t.obs then
    Obs.emit t.obs
      (Event.View_switch { vid; from_index; to_index; outcome })

let switch_kernel_view t ~vid index =
  if t.opts.same_view_opt && t.active.(vid) = index then begin
    Metrics.incr t.switch_skips;
    emit_switch t ~vid ~from_index:index ~to_index:index Event.Skipped
  end
  else begin
    (if index = full_view_index then
       install_tables t ~vid ~to_index:index
         (List.filter_map
            (fun dir ->
              Option.map (fun tb -> (dir, tb)) (Hyp.original_table t.hyp ~dir))
            t.all_dirs)
     else
       match find_view t index with
       | Some v -> install_tables t ~vid ~to_index:index (View.tables v)
       | None -> invalid_arg "Facechange: switching to an unloaded view");
    emit_switch t ~vid ~from_index:t.active.(vid) ~to_index:index Event.Switched;
    t.active.(vid) <- index;
    Metrics.incr t.switches;
    Metrics.incr (Metrics.family_counter t.switches_f (current_comm t))
  end

(* ---------------- VMI helpers ---------------- *)

let vmi_in_kernel t pid =
  match Hyp.read_guest_u32 t.hyp (Layout.task_struct_addr ~pid + 20) with
  | Some v -> v <> 0
  | None -> false

(* ---------------- breakpoint handler (Algorithm 1, lines 30-42) ------ *)

(* The resume-userspace breakpoint is a shared guest address: keep it set
   while any vCPU has a deferred switch pending. *)
let sync_resume_breakpoint t =
  if Array.exists Option.is_some t.pending then
    Hyp.set_breakpoint t.hyp t.resume_addr
  else Hyp.clear_breakpoint t.hyp t.resume_addr

(* ---------------- governor escalation ---------------- *)

(* Rebind [comm] to the full kernel view and install it on the vCPU that
   is faulting right now.  The narrow binding is parked in
   [saved_bindings] so the cooldown can restore it. *)
let degrade_to_full t ~vid ~comm ~cycle ~reason =
  let from_index = selector t ~comm in
  if from_index <> full_view_index then begin
    Hashtbl.replace t.saved_bindings comm from_index;
    bind t ~comm ~index:full_view_index
  end;
  t.pending.(vid) <- None;
  sync_resume_breakpoint t;
  if t.active.(vid) <> full_view_index then
    switch_kernel_view t ~vid full_view_index;
  Metrics.incr t.degraded_c;
  Metrics.incr (Metrics.family_counter t.degraded_f comm);
  if Obs.armed t.obs then
    Obs.emit t.obs (Event.Degraded { vid; comm; from_index; reason });
  match t.governor with
  | None -> ()
  | Some g -> (
      match Governor.note_degraded g ~comm ~cycle with
      | `Degraded -> ()
      | `Quarantine ->
          (* too many degradations: never renarrow this comm again *)
          Hashtbl.remove t.saved_bindings comm;
          Metrics.incr t.quarantined_c;
          if Obs.armed t.obs then
            Obs.emit t.obs
              (Event.Quarantined
                 { vid; comm; degradations = Governor.degradations g ~comm }))

let quarantine_comm t ~vid ~comm ~cycle ~reason =
  let from_index = selector t ~comm in
  if from_index <> full_view_index then bind t ~comm ~index:full_view_index;
  Hashtbl.remove t.saved_bindings comm;
  t.pending.(vid) <- None;
  sync_resume_breakpoint t;
  if t.active.(vid) <> full_view_index then
    switch_kernel_view t ~vid full_view_index;
  (match t.governor with
  | Some g -> Governor.quarantine g ~comm ~cycle
  | None -> ());
  Metrics.incr t.degraded_c;
  Metrics.incr (Metrics.family_counter t.degraded_f comm);
  Metrics.incr t.quarantined_c;
  if Obs.armed t.obs then begin
    Obs.emit t.obs (Event.Degraded { vid; comm; from_index; reason });
    Obs.emit t.obs
      (Event.Quarantined
         {
           vid;
           comm;
           degradations =
             (match t.governor with
             | Some g -> Governor.degradations g ~comm
             | None -> 0);
         })
  end

(* Record one degradable event (lazy recovery or broken backtrace) and
   escalate if it tipped the comm into a storm. *)
let governor_note_event t ~vid ~comm ~reason =
  match t.governor with
  | None -> ()
  | Some g -> (
      let cycle = Os.cycles (Hyp.os t.hyp) in
      match Governor.note_event g ~comm ~cycle with
      | `Steady | `Throttle -> ()
      | `Storm n ->
          Metrics.incr t.storms;
          if Obs.armed t.obs then
            Obs.emit t.obs
              (Event.Storm_detected
                 {
                   vid;
                   comm;
                   events = n;
                   window = (Governor.policy g).Governor.window_cycles;
                 });
          degrade_to_full t ~vid ~comm ~cycle
            ~reason:(Printf.sprintf "%s storm: %d events in window" reason n))

(* Policy for the recovery path's dead ends: the paper lets the guest
   die; under a governor the comm falls back to the full view instead and
   execution resumes on the original kernel code. *)
let governed_unhandled t ~vid ~comm reason =
  match t.governor with
  | None -> `Unhandled reason
  | Some g -> (
      let cycle = Os.cycles (Hyp.os t.hyp) in
      match Governor.note_unhandled g ~comm with
      | `Die -> `Unhandled reason
      | `Tolerate ->
          Metrics.incr t.tolerated;
          `Handled
      | `Degrade ->
          degrade_to_full t ~vid ~comm ~cycle ~reason;
          `Handled
      | `Quarantine ->
          quarantine_comm t ~vid ~comm ~cycle ~reason;
          `Handled)

let handle_kernel_view_trap t (_regs : Cpu.regs) addr =
  Hyp.charge t.hyp Cost.breakpoint_handler;
  let vid = Os.active_vcpu_id (Hyp.os t.hyp) in
  if addr = t.ctx_switch_addr then begin
    let pid, comm = Hyp.current_task t.hyp in
    if Obs.armed t.obs then
      Obs.emit t.obs (Event.Breakpoint { vid; addr; pid; comm });
    (* hysteresis: a degraded comm whose cooldown elapsed re-narrows
       here, at a context switch — the only moment a rebind is safe *)
    (match t.governor with
    | Some g
      when Governor.renarrow_due g ~comm
             ~cycle:(Os.cycles (Hyp.os t.hyp)) -> (
        Governor.note_renarrowed g ~comm;
        match Hashtbl.find_opt t.saved_bindings comm with
        | Some narrow when find_view t narrow <> None ->
            Hashtbl.remove t.saved_bindings comm;
            bind t ~comm ~index:narrow;
            Metrics.incr t.renarrowed_c;
            if Obs.armed t.obs then
              Obs.emit t.obs (Event.Renarrowed { vid; comm; to_index = narrow })
        | _ ->
            (* the narrow view is gone; stay on full but stop tracking *)
            Hashtbl.remove t.saved_bindings comm)
    | _ -> ());
    let index = selector t ~comm in
    if index = full_view_index then begin
      t.pending.(vid) <- None;
      sync_resume_breakpoint t;
      switch_kernel_view t ~vid index
    end
    else if t.opts.switch_at_resume && not (vmi_in_kernel t pid) then begin
      t.pending.(vid) <- Some index;
      sync_resume_breakpoint t;
      Metrics.incr t.deferred;
      emit_switch t ~vid ~from_index:t.active.(vid) ~to_index:index
        Event.Deferred
    end
    else begin
      (* immediate switch: either the optimization is off, or the process
         resumes mid-kernel (cross-view case) *)
      t.pending.(vid) <- None;
      sync_resume_breakpoint t;
      switch_kernel_view t ~vid index
    end
  end
  else if addr = t.resume_addr then begin
    (* the label comes from [Os.current], not VMI: a guest read here
       would move the dTLB counters only when a trace is armed *)
    if Obs.armed t.obs then begin
      let cur = Os.current (Hyp.os t.hyp) in
      Obs.emit t.obs
        (Event.Breakpoint
           { vid; addr; pid = cur.Process.pid; comm = cur.Process.name })
    end;
    match t.pending.(vid) with
    | Some index ->
        t.pending.(vid) <- None;
        sync_resume_breakpoint t;
        switch_kernel_view t ~vid index
    | None -> ()
  end

(* ---------------- kernel code recovery (Algorithm 1, lines 1-17) ----- *)

let code_region t addr =
  let image = Os.image (Hyp.os t.hyp) in
  if addr >= Image.text_base image && addr < Image.text_end image then
    Some (Image.text_base image, Image.text_end image)
  else if Layout.is_module_address addr then
    List.find_map
      (fun (_, base, size) ->
        if base <= addr && addr < base + size then Some (base, base + size) else None)
      (Hyp.module_list t.hyp)
  else None

(* Fetch the whole containing function from the original kernel pages and
   fill it into the view.  Returns (start, stop) on success. *)
let fetch_fill_code t view addr =
  match code_region t addr with
  | None -> None
  | Some (lo, hi) -> (
      let read = Hyp.read_original_code t.hyp in
      match Scan.function_bounds ~read ~lo ~hi addr with
      | None -> None
      | Some (start, stop) ->
          Hyp.iter_original_code t.hyp ~lo:start ~hi:stop
            (fun ~gva src src_off len ->
              View.write_code_range view ~gva ~src ~src_off ~len);
          Hyp.charge t.hyp ((stop - start) / 16 * Cost.code_copy_per_16_bytes);
          Metrics.add t.recovered_bytes (stop - start);
          Metrics.add
            (Metrics.family_counter t.recovered_bytes_f (current_comm t))
            (stop - start);
          Metrics.observe t.recovery_bytes_h (stop - start);
          Some (start, stop))

(* The paper "inspect[s] the current call stack to determine whether the
   current execution is in interrupt context": true when any frame lies in
   the interrupt entry path. *)
let is_interrupt_frame t frames =
  List.exists
    (fun f ->
      match Fc_kernel.Symbols.find (Hyp.symbols t.hyp) f with
      | Some (name, _) -> String.equal name "irq_entry"
      | None -> false)
    frames

let handle_invalid_opcode t (regs : Cpu.regs) =
  let vid = Os.active_vcpu_id (Hyp.os t.hyp) in
  if t.active.(vid) = full_view_index then
    governed_unhandled t ~vid ~comm:(current_comm t)
      (Printf.sprintf "invalid opcode at 0x%x under the full kernel view" regs.Cpu.eip)
  else
    match find_view t t.active.(vid) with
    | None ->
        governed_unhandled t ~vid ~comm:(current_comm t)
          "active view disappeared"
    | Some view ->
        let sid = span_enter t Fc_obs.Span.Recovery in
        let result = (
        Hyp.charge t.hyp Cost.invalid_opcode_handler;
        (* symbols may have changed (modules hidden/loaded) since attach *)
        Hyp.refresh_symbols t.hyp;
        let pid, comm = Hyp.current_task t.hyp in
        if Obs.armed t.obs then
          Obs.emit t.obs
            (Event.Ud2_trap { vid; eip = regs.Cpu.eip; pid; comm });
        let walk =
          let max_depth =
            match t.governor with
            | Some g -> (Governor.policy g).Governor.max_backtrace_depth
            | None -> 64
          in
          Hyp.stack_walk t.hyp ~eip:regs.Cpu.eip ~ebp:regs.Cpu.ebp
            ~esp:regs.Cpu.esp ~max_depth ()
        in
        let frames = walk.Hyp.frames in
        (* a malformed chain is a degradable event, not a crash: the walk
           already stopped at the break, so only the trustworthy prefix
           is used below *)
        (match walk.Hyp.broken with
        | None -> ()
        | Some why ->
            Metrics.incr t.broken_walks;
            governor_note_event t ~vid ~comm ~reason:why);
        (* capture what the view presented at each frame before recovery
           rewrites it (the hex dumps of Fig. 3) *)
        let frame_bytes =
          List.map
            (fun a ->
              List.filter_map
                (fun i -> View.read_code view ~gva:(a + i))
                [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ])
            frames
        in
        (* Instant recovery: any caller whose return target reads back as
           0x0b 0x0f in this view would be misdecoded instead of trapping;
           recover it now (Fig. 3). *)
        let instant =
          if not t.opts.instant_recovery then []
          else
            List.filter_map
              (fun ret ->
                match (View.read_code view ~gva:ret, View.read_code view ~gva:(ret + 1)) with
                | Some 0x0b, Some 0x0f -> (
                    match fetch_fill_code t view ret with
                    | Some (start, stop) ->
                        let symbol = Hyp.render_addr t.hyp start in
                        if Obs.armed t.obs then
                          Obs.emit t.obs
                            (Event.Recovery
                               { kind = Event.Instant; start; stop; symbol });
                        Some (start, stop, symbol)
                    | None -> None)
                | _ -> None)
              (match frames with _ :: rest -> rest | [] -> [])
        in
        match fetch_fill_code t view regs.Cpu.eip with
        | None ->
            governed_unhandled t ~vid ~comm
              (Printf.sprintf "cannot locate kernel code containing 0x%x" regs.Cpu.eip)
        | Some (start, stop) ->
            Metrics.incr t.recoveries;
            Metrics.incr (Metrics.family_counter t.recoveries_f (current_comm t));
            if Obs.armed t.obs then
              Obs.emit t.obs
                (Event.Recovery
                   {
                     kind = Event.Lazy;
                     start;
                     stop;
                     symbol = Hyp.render_addr t.hyp start;
                   });
            let rendered = List.map (fun a -> Hyp.render_addr t.hyp a) frames in
            let unknown_frames =
              List.exists
                (fun s ->
                  let n = String.length s in
                  n >= 9 && String.sub s (n - 9) 9 = "<UNKNOWN>")
                rendered
            in
            Recovery_log.add t.log
              {
                Recovery_log.cycle = Os.cycles (Hyp.os t.hyp);
                pid;
                comm;
                view_app = View.app view;
                fault_addr = regs.Cpu.eip;
                recovered = [ (start, stop, Hyp.render_addr t.hyp start) ];
                instant;
                backtrace =
                  (let rec zip3 a b c =
                     match (a, b, c) with
                     | x :: xs, y :: ys, z :: zs ->
                         { Recovery_log.addr = x; rendered = y; view_bytes = z }
                         :: zip3 xs ys zs
                     | _ -> []
                   in
                   zip3 frames rendered frame_bytes);
                interrupt_context =
                  Os.in_interrupt (Hyp.os t.hyp) || is_interrupt_frame t frames;
                unknown_frames;
              };
            (* throttle: while a comm is hot, damp the storm by loading
               the functions of its whole caller chain eagerly, not just
               misdecodable return targets *)
            (match t.governor with
            | Some g when Governor.state g ~comm = Governor.Throttled ->
                List.iter
                  (fun a ->
                    if not (View.covers view ~gva:a) then
                      ignore (fetch_fill_code t view a))
                  (match frames with _ :: rest -> rest | [] -> [])
            | _ -> ());
            governor_note_event t ~vid ~comm ~reason:"recovery";
            `Handled)
        in
        span_exit t sid;
        result

(* A CPU fault (a fetch from an address no view maps) is a dead end the
   recovery path cannot explain, like an invalid opcode it cannot
   locate: the paper lets the guest die, a governor falls the comm back
   to the full view and retries. *)
let handle_fault t reason =
  let vid = Os.active_vcpu_id (Hyp.os t.hyp) in
  governed_unhandled t ~vid ~comm:(current_comm t) reason

(* ---------------- lifecycle ---------------- *)

(* The kernel-code EPT directory set, derived from the (deterministic)
   image layout — shared by [enable] and the snapshot [restore]. *)
let compute_all_dirs image =
  let dir_of gva = Ept.dir_of_page (Layout.page_of (Layout.gva_to_gpa gva)) in
  let acc = ref [] in
  let add d = if not (List.mem d !acc) then acc := d :: !acc in
  let rec sweep gva limit =
    if gva < limit then begin
      add (dir_of gva);
      sweep (gva + (Ept.dir_span_pages * Layout.page_size)) limit
    end
  in
  sweep (Image.text_base image) (Image.text_end image);
  add (dir_of (Image.text_end image - 1));
  sweep Layout.module_area_base Layout.module_area_limit;
  add (dir_of (Layout.module_area_limit - 1));
  List.rev !acc

let enable ?(opts = default_opts) ?governor hyp =
  let os = Hyp.os hyp in
  let image = Os.image os in
  let ctx_switch_addr = Image.addr_of_exn image "__switch_to" in
  let resume_addr = Image.addr_of_exn image "resume_userspace" in
  let all_dirs = compute_all_dirs image in
  let nvcpus = Os.vcpu_count (Hyp.os hyp) in
  let obs = Hyp.obs hyp in
  let m = Obs.metrics obs in
  let t =
    {
      hyp;
      obs;
      opts;
      views = [];
      bindings = [];
      next_index = 1;
      active = Array.make nvcpus full_view_index;
      pending = Array.make nvcpus None;
      ctx_switch_addr;
      resume_addr;
      all_dirs;
      log = Recovery_log.create ();
      switches = Metrics.counter m ~subsystem:"fc" "view_switches";
      switch_skips = Metrics.counter m ~subsystem:"fc" "switches_skipped";
      deferred = Metrics.counter m ~subsystem:"fc" "switches_deferred";
      recoveries = Metrics.counter m ~subsystem:"fc" "recoveries";
      recovered_bytes = Metrics.counter m ~subsystem:"fc" "recovered_bytes";
      recovery_bytes_h = Metrics.histogram m ~subsystem:"fc" "recovery_bytes";
      view_build_cycles = Metrics.histogram m ~subsystem:"fc" "view_build_cycles";
      switches_f = Metrics.counter_family m ~subsystem:"fc" "view_switches";
      recoveries_f = Metrics.counter_family m ~subsystem:"fc" "recoveries";
      recovered_bytes_f = Metrics.counter_family m ~subsystem:"fc" "recovered_bytes";
      retired_cow_breaks = 0;
      governor = Option.map Governor.create governor;
      saved_bindings = Hashtbl.create 8;
      storms = Metrics.counter m ~subsystem:"fc" "storms";
      degraded_c = Metrics.counter m ~subsystem:"fc" "degradations";
      renarrowed_c = Metrics.counter m ~subsystem:"fc" "renarrows";
      quarantined_c = Metrics.counter m ~subsystem:"fc" "quarantines";
      broken_walks = Metrics.counter m ~subsystem:"fc" "broken_backtraces";
      tolerated = Metrics.counter m ~subsystem:"fc" "tolerated_faults";
      degraded_f = Metrics.counter_family m ~subsystem:"fc" "degradations";
      enabled = true;
    }
  in
  (* a fresh enablement owns these instruments, even on a guest that ran
     an earlier FACE-CHANGE instance *)
  List.iter Metrics.reset
    [
      t.switches; t.switch_skips; t.deferred; t.recoveries; t.recovered_bytes;
      t.storms; t.degraded_c; t.renarrowed_c; t.quarantined_c; t.broken_walks;
      t.tolerated;
    ];
  Metrics.reset_histogram t.recovery_bytes_h;
  Metrics.reset_histogram t.view_build_cycles;
  List.iter Metrics.reset_family
    [
      t.switches_f;
      t.recoveries_f;
      t.recovered_bytes_f;
      t.degraded_f;
      Metrics.counter_family m ~subsystem:"view" "cow_breaks";
    ];
  (* structural state exported as read-through gauges: Stats.capture is a
     projection of these plus the counters above *)
  Metrics.gauge m ~subsystem:"fc" "views_loaded" (fun () -> List.length t.views);
  Metrics.gauge m ~subsystem:"fc" "view_pages" (fun () ->
      List.fold_left (fun n v -> n + View.private_page_count v) 0 t.views);
  Metrics.gauge m ~subsystem:"fc" "shared_frames" (fun () -> shared_frames t);
  Metrics.gauge m ~subsystem:"fc" "cow_breaks" (fun () -> cow_breaks t);
  Metrics.gauge m ~subsystem:"fc" "recovery_log_dropped" (fun () ->
      Recovery_log.dropped t.log);
  Hyp.on_breakpoint hyp (fun _hyp regs addr -> handle_kernel_view_trap t regs addr);
  Hyp.on_invalid_opcode hyp (fun _hyp regs -> handle_invalid_opcode t regs);
  Hyp.on_fault hyp (fun _hyp _regs m -> handle_fault t m);
  Hyp.set_breakpoint hyp ctx_switch_addr;
  t

let load_view t config =
  let index = t.next_index in
  t.next_index <- index + 1;
  let charged_before = Hyp.cycles_charged t.hyp in
  let sid = span_enter t Fc_obs.Span.View_build in
  let v =
    View.build ~hyp:t.hyp ~whole_function_load:t.opts.whole_function_load
      ~share_frames:t.opts.share_frames ~index config
  in
  span_exit t sid;
  Metrics.observe t.view_build_cycles (Hyp.cycles_charged t.hyp - charged_before);
  t.views <- t.views @ [ v ];
  bind t ~comm:config.Fc_profiler.View_config.app ~index;
  if Obs.armed t.obs then
    Obs.emit t.obs
      (Event.View_load
         {
           index;
           app = View.app v;
           pages = View.private_page_count v;
           loaded_bytes = View.loaded_bytes v;
         });
  index

let unload_view t index =
  match find_view t index with
  | None -> ()
  | Some v ->
      Array.iteri
        (fun vid active ->
          if active = index then switch_kernel_view t ~vid full_view_index)
        t.active;
      t.bindings <- List.filter (fun (_, i) -> i <> index) t.bindings;
      Hashtbl.iter
        (fun comm narrow ->
          if narrow = index then Hashtbl.remove t.saved_bindings comm)
        (Hashtbl.copy t.saved_bindings);
      t.views <- List.filter (fun v' -> View.index v' <> index) t.views;
      Array.iteri
        (fun vid p -> if p = Some index then t.pending.(vid) <- None)
        t.pending;
      sync_resume_breakpoint t;
      t.retired_cow_breaks <- t.retired_cow_breaks + View.cow_breaks v;
      if Obs.armed t.obs then
        Obs.emit t.obs
          (Event.View_unload
             { index; app = View.app v; cow_breaks = View.cow_breaks v });
      View.destroy v;
      (* retire only the dead view's tag — survivors (and the full view)
         keep every cached translation *)
      Os.retire_view_translations (Hyp.os t.hyp) ~view:index

let disable t =
  if t.enabled then begin
    t.enabled <- false;
    Array.iteri (fun vid _ -> switch_kernel_view t ~vid full_view_index) t.active;
    Array.fill t.pending 0 (Array.length t.pending) None;
    Hyp.clear_breakpoint t.hyp t.ctx_switch_addr;
    Hyp.clear_breakpoint t.hyp t.resume_addr;
    List.iter
      (fun v ->
        t.retired_cow_breaks <- t.retired_cow_breaks + View.cow_breaks v;
        let index = View.index v in
        View.destroy v;
        Os.retire_view_translations (Hyp.os t.hyp) ~view:index)
      t.views;
    t.views <- [];
    t.bindings <- [];
    Hashtbl.reset t.saved_bindings
  end

(* ---------------- snapshot: freeze / restore ---------------- *)

type frozen = {
  zf_opts : opts;
  zf_views : View.frozen list; (* load order *)
  zf_bindings : (string * int) list; (* assoc order kept verbatim *)
  zf_next_index : int;
  zf_active : int list; (* per vCPU *)
  zf_pending : int option list; (* per vCPU *)
  zf_retired_cow_breaks : int;
  zf_governor : Governor.frozen option;
  zf_saved_bindings : (string * int) list; (* sorted *)
  zf_log : string; (* Recovery_log.to_string, retained window *)
  zf_log_dropped : int;
  zf_log_cap : int;
  zf_enabled : bool;
}

let freeze t ~table_id =
  {
    zf_opts = t.opts;
    zf_views = List.map (View.freeze ~table_id) t.views;
    zf_bindings = t.bindings;
    zf_next_index = t.next_index;
    zf_active = Array.to_list t.active;
    zf_pending = Array.to_list t.pending;
    zf_retired_cow_breaks = t.retired_cow_breaks;
    zf_governor = Option.map Governor.freeze t.governor;
    zf_saved_bindings =
      List.sort compare
        (Hashtbl.fold (fun c i acc -> (c, i) :: acc) t.saved_bindings []);
    zf_log = Recovery_log.to_string t.log;
    zf_log_dropped = Recovery_log.dropped t.log;
    zf_log_cap = Recovery_log.cap t.log;
    zf_enabled = t.enabled;
  }

let restore ~hyp ~table_of (z : frozen) =
  let os = Hyp.os hyp in
  let image = Os.image os in
  let log =
    match Recovery_log.of_string ~cap:z.zf_log_cap z.zf_log with
    | Ok l ->
        Recovery_log.restore_dropped l z.zf_log_dropped;
        l
    | Error e -> invalid_arg ("Facechange.restore: bad recovery log: " ^ e)
  in
  let obs = Hyp.obs hyp in
  let m = Obs.metrics obs in
  let t =
    {
      hyp;
      obs;
      opts = z.zf_opts;
      views = List.map (fun zv -> View.restore ~hyp ~table_of zv) z.zf_views;
      bindings = z.zf_bindings;
      next_index = z.zf_next_index;
      active = Array.of_list z.zf_active;
      pending = Array.of_list z.zf_pending;
      ctx_switch_addr = Image.addr_of_exn image "__switch_to";
      resume_addr = Image.addr_of_exn image "resume_userspace";
      all_dirs = compute_all_dirs image;
      log;
      switches = Metrics.counter m ~subsystem:"fc" "view_switches";
      switch_skips = Metrics.counter m ~subsystem:"fc" "switches_skipped";
      deferred = Metrics.counter m ~subsystem:"fc" "switches_deferred";
      recoveries = Metrics.counter m ~subsystem:"fc" "recoveries";
      recovered_bytes = Metrics.counter m ~subsystem:"fc" "recovered_bytes";
      recovery_bytes_h = Metrics.histogram m ~subsystem:"fc" "recovery_bytes";
      view_build_cycles = Metrics.histogram m ~subsystem:"fc" "view_build_cycles";
      switches_f = Metrics.counter_family m ~subsystem:"fc" "view_switches";
      recoveries_f = Metrics.counter_family m ~subsystem:"fc" "recoveries";
      recovered_bytes_f = Metrics.counter_family m ~subsystem:"fc" "recovered_bytes";
      retired_cow_breaks = z.zf_retired_cow_breaks;
      governor = Option.map Governor.thaw z.zf_governor;
      saved_bindings =
        (let h = Hashtbl.create 8 in
         List.iter (fun (c, i) -> Hashtbl.replace h c i) z.zf_saved_bindings;
         h);
      storms = Metrics.counter m ~subsystem:"fc" "storms";
      degraded_c = Metrics.counter m ~subsystem:"fc" "degradations";
      renarrowed_c = Metrics.counter m ~subsystem:"fc" "renarrows";
      quarantined_c = Metrics.counter m ~subsystem:"fc" "quarantines";
      broken_walks = Metrics.counter m ~subsystem:"fc" "broken_backtraces";
      tolerated = Metrics.counter m ~subsystem:"fc" "tolerated_faults";
      degraded_f = Metrics.counter_family m ~subsystem:"fc" "degradations";
      enabled = z.zf_enabled;
    }
  in
  (* no counter resets here (the codec's metrics section is applied after
     every layer is restored); gauges re-register over the new instance *)
  Metrics.gauge m ~subsystem:"fc" "views_loaded" (fun () -> List.length t.views);
  Metrics.gauge m ~subsystem:"fc" "view_pages" (fun () ->
      List.fold_left (fun n v -> n + View.private_page_count v) 0 t.views);
  Metrics.gauge m ~subsystem:"fc" "shared_frames" (fun () -> shared_frames t);
  Metrics.gauge m ~subsystem:"fc" "cow_breaks" (fun () -> cow_breaks t);
  Metrics.gauge m ~subsystem:"fc" "recovery_log_dropped" (fun () ->
      Recovery_log.dropped t.log);
  Hyp.on_breakpoint hyp (fun _hyp regs addr -> handle_kernel_view_trap t regs addr);
  Hyp.on_invalid_opcode hyp (fun _hyp regs -> handle_invalid_opcode t regs);
  Hyp.on_fault hyp (fun _hyp _regs m -> handle_fault t m);
  (* breakpoints are NOT re-set: the __switch_to trap (and the resume
     trap, when a deferred switch was pending) live in the restored trap
     set already — setting them again would bump the trap generation a
     second time *)
  t
