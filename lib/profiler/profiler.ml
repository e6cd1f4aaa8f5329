module Os = Fc_machine.Os
module Layout = Fc_kernel.Layout
module Range_list = Fc_ranges.Range_list
module Segment = Fc_ranges.Segment
module Span = Fc_ranges.Span

(* A recorder accumulates contiguous execution runs, deduplicates them,
   and merges them into a Range_list in one pass at the end.  Runs
   repeat enormously (the same syscall path executes over and over), so
   the dedup table is the main cost saver. *)
type recorder = {
  mutable run_lo : int;
  mutable run_hi : int; (* current contiguous run; run_lo = -1 when none *)
  seen : (int * int, unit) Hashtbl.t;
  mutable runs : (int * int) list;
}

let recorder_create () =
  { run_lo = -1; run_hi = -1; seen = Hashtbl.create 4096; runs = [] }

let recorder_flush r =
  if r.run_lo >= 0 then begin
    let key = (r.run_lo, r.run_hi) in
    if not (Hashtbl.mem r.seen key) then begin
      Hashtbl.add r.seen key ();
      r.runs <- key :: r.runs
    end;
    r.run_lo <- -1
  end

(* A stretch that starts where the current run ends extends it; the
   stretches of one run may come from different blocks, or from
   different contexts with the other contexts' stretches skipped. *)
let recorder_extend r lo hi =
  if lo = r.run_hi && r.run_lo >= 0 then r.run_hi <- hi
  else begin
    recorder_flush r;
    r.run_lo <- lo;
    r.run_hi <- hi
  end

type session = {
  os : Os.t;
  target_pid : int;
  app_rec : recorder;
  irq_rec : recorder;
  (* module bases snapshot, sorted: (base, size, name) *)
  mods : (int * int * string) list;
  mutable active : bool;
}

let segmentize mods addr =
  if Layout.is_module_address addr then
    match
      List.find_opt (fun (base, size, _) -> base <= addr && addr < base + size) mods
    with
    | Some (base, _, name) -> Some (Segment.Kernel_module name, addr - base)
    | None -> None (* module area but no module: ignore (unloaded) *)
  else if Layout.is_kernel_address addr then Some (Segment.Base_kernel, addr)
  else None

let ranges_of_runs mods runs =
  List.filter_map
    (fun (lo, hi) ->
      Option.map
        (fun (seg, rel_lo) -> (seg, Span.make ~lo:rel_lo ~hi:(rel_lo + (hi - lo))))
        (segmentize mods lo))
    runs
  |> Range_list.of_list

let start os ~target_pid =
  let mods =
    List.map (fun (name, base, size) -> (base, size, name)) (Os.vmi_module_list os)
  in
  let s =
    {
      os;
      target_pid;
      app_rec = recorder_create ();
      irq_rec = recorder_create ();
      mods;
      active = true;
    }
  in
  (* Both criteria are checked once per stretch.  A stretch is one
     block's prefix on one page, or one instruction, so its first
     address decides kernel space as the per-instruction rule would;
     and the whole stretch ran in the context current now. *)
  Os.set_coverage os
    (Some
       (fun lo hi ->
         if Layout.is_kernel_address lo then
           if Os.in_interrupt os then recorder_extend s.irq_rec lo hi
           else if (Os.current os).Fc_machine.Process.pid = s.target_pid then
             recorder_extend s.app_rec lo hi));
  s

let stop s =
  if s.active then begin
    Os.set_coverage s.os None;
    recorder_flush s.app_rec;
    recorder_flush s.irq_rec;
    s.active <- false
  end

let finish_rec s r =
  recorder_flush r;
  ranges_of_runs s.mods r.runs

let app_ranges s = finish_rec s s.app_rec
let interrupt_ranges s = finish_rec s s.irq_rec
let view_ranges s = Range_list.union (app_ranges s) (interrupt_ranges s)
let to_config s ~app = View_config.make ~app (view_ranges s)

let profile_app ?(config = Os.profiling_config) image ~name script =
  let os = Os.create ~config image in
  let p = Os.spawn os ~name script in
  let s = start os ~target_pid:p.Fc_machine.Process.pid in
  Os.run os;
  stop s;
  to_config s ~app:name
