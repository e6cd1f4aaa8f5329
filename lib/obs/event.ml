type switch_outcome = Switched | Skipped | Deferred
type recovery_kind = Lazy | Instant
type exit_reason = Exit_breakpoint | Exit_invalid_opcode | Exit_fault

type t =
  | Vm_exit of { reason : exit_reason; addr : int }
  | Breakpoint of { vid : int; addr : int; pid : int; comm : string }
  | View_switch of {
      vid : int;
      from_index : int;
      to_index : int;
      outcome : switch_outcome;
    }
  | Ud2_trap of { vid : int; eip : int; pid : int; comm : string }
  | Recovery of { kind : recovery_kind; start : int; stop : int; symbol : string }
  | Frame_share of { frame : int }
  | Cow_break of { frame : int; fresh : int }
  | View_load of { index : int; app : string; pages : int; loaded_bytes : int }
  | View_unload of { index : int; app : string; cow_breaks : int }
  | Sched_switch of { vid : int; pid : int; comm : string }
  | Span_begin of {
      sid : int;
      parent : int;
      span : string;
      vid : int;
      pid : int;
      comm : string;
    }
  | Span_end of { sid : int; span : string }
  | Fault_injected of { fault : string; detail : string }
  | Storm_detected of { vid : int; comm : string; events : int; window : int }
  | Degraded of { vid : int; comm : string; from_index : int; reason : string }
  | Renarrowed of { vid : int; comm : string; to_index : int }
  | Quarantined of { vid : int; comm : string; degradations : int }
  | Sample of { vid : int; pid : int; comm : string; pc : int; view : int }

type value = Int of int | Str of string

let outcome_label = function
  | Switched -> "switched"
  | Skipped -> "skipped"
  | Deferred -> "deferred"

let recovery_label = function Lazy -> "lazy" | Instant -> "instant"

let reason_label = function
  | Exit_breakpoint -> "breakpoint"
  | Exit_invalid_opcode -> "invalid_opcode"
  | Exit_fault -> "fault"

let kind = function
  | Vm_exit _ -> "vm_exit"
  | Breakpoint _ -> "breakpoint"
  | View_switch _ -> "view_switch"
  | Ud2_trap _ -> "ud2_trap"
  | Recovery _ -> "recovery"
  | Frame_share _ -> "frame_share"
  | Cow_break _ -> "cow_break"
  | View_load _ -> "view_load"
  | View_unload _ -> "view_unload"
  | Sched_switch _ -> "sched_switch"
  | Span_begin _ -> "span_begin"
  | Span_end _ -> "span_end"
  | Fault_injected _ -> "fault_injected"
  | Storm_detected _ -> "storm_detected"
  | Degraded _ -> "degraded"
  | Renarrowed _ -> "renarrowed"
  | Quarantined _ -> "quarantined"
  | Sample _ -> "sample"

let kinds =
  [
    "vm_exit";
    "breakpoint";
    "view_switch";
    "ud2_trap";
    "recovery";
    "frame_share";
    "cow_break";
    "view_load";
    "view_unload";
    "sched_switch";
    "span_begin";
    "span_end";
    "fault_injected";
    "storm_detected";
    "degraded";
    "renarrowed";
    "quarantined";
    "sample";
  ]

let fields = function
  | Vm_exit { reason; addr } ->
      [ ("reason", Str (reason_label reason)); ("addr", Int addr) ]
  | Breakpoint { vid; addr; pid; comm } ->
      [ ("vid", Int vid); ("addr", Int addr); ("pid", Int pid); ("comm", Str comm) ]
  | View_switch { vid; from_index; to_index; outcome } ->
      [
        ("vid", Int vid);
        ("from", Int from_index);
        ("to", Int to_index);
        ("outcome", Str (outcome_label outcome));
      ]
  | Ud2_trap { vid; eip; pid; comm } ->
      [ ("vid", Int vid); ("eip", Int eip); ("pid", Int pid); ("comm", Str comm) ]
  | Recovery { kind; start; stop; symbol } ->
      [
        ("recovery", Str (recovery_label kind));
        ("start", Int start);
        ("stop", Int stop);
        ("bytes", Int (stop - start));
        ("symbol", Str symbol);
      ]
  | Frame_share { frame } -> [ ("frame", Int frame) ]
  | Cow_break { frame; fresh } -> [ ("frame", Int frame); ("fresh", Int fresh) ]
  | View_load { index; app; pages; loaded_bytes } ->
      [
        ("index", Int index);
        ("app", Str app);
        ("pages", Int pages);
        ("loaded_bytes", Int loaded_bytes);
      ]
  | View_unload { index; app; cow_breaks } ->
      [ ("index", Int index); ("app", Str app); ("cow_breaks", Int cow_breaks) ]
  | Sched_switch { vid; pid; comm } ->
      [ ("vid", Int vid); ("pid", Int pid); ("comm", Str comm) ]
  | Span_begin { sid; parent; span; vid; pid; comm } ->
      [
        ("sid", Int sid);
        ("parent", Int parent);
        ("span", Str span);
        ("vid", Int vid);
        ("pid", Int pid);
        ("comm", Str comm);
      ]
  | Span_end { sid; span } -> [ ("sid", Int sid); ("span", Str span) ]
  | Fault_injected { fault; detail } ->
      [ ("fault", Str fault); ("detail", Str detail) ]
  | Storm_detected { vid; comm; events; window } ->
      [
        ("vid", Int vid);
        ("comm", Str comm);
        ("events", Int events);
        ("window", Int window);
      ]
  | Degraded { vid; comm; from_index; reason } ->
      [
        ("vid", Int vid);
        ("comm", Str comm);
        ("from", Int from_index);
        ("reason", Str reason);
      ]
  | Renarrowed { vid; comm; to_index } ->
      [ ("vid", Int vid); ("comm", Str comm); ("to", Int to_index) ]
  | Quarantined { vid; comm; degradations } ->
      [ ("vid", Int vid); ("comm", Str comm); ("degradations", Int degradations) ]
  | Sample { vid; pid; comm; pc; view } ->
      [
        ("vid", Int vid);
        ("pid", Int pid);
        ("comm", Str comm);
        ("pc", Int pc);
        ("view", Int view);
      ]

let pp ppf e =
  Format.fprintf ppf "%s" (kind e);
  List.iter
    (fun (k, v) ->
      match v with
      | Int i -> Format.fprintf ppf " %s=%d" k i
      | Str s -> Format.fprintf ppf " %s=%s" k s)
    (fields e)
