type run_state =
  | Ready
  | Blocked of { yield_id : int; wake_round : int }
  | Exited

type t = {
  pid : int;
  name : string;
  mutable cpu : int;
  mutable script : Action.t list;
  mutable state : run_state;
  mutable saved_regs : Cpu.regs option;
  mutable saved_dispatch : int Queue.t;
  mutable in_kernel : bool;
  mutable syscall_count : int;
  mutable last_scheduled_round : int;
}

let create ?(cpu = 0) ~pid ~name script =
  {
    pid;
    name;
    cpu;
    script;
    state = Ready;
    saved_regs = None;
    saved_dispatch = Queue.create ();
    in_kernel = false;
    syscall_count = 0;
    last_scheduled_round = -1;
  }

let kstack_top t = Fc_kernel.Layout.kstack_top ~pid:t.pid
let is_ready t = t.state = Ready
let is_exited t = t.state = Exited

let block t ~yield_id ~wake_round ~regs ~dispatch =
  t.state <- Blocked { yield_id; wake_round };
  t.saved_regs <- Some regs;
  t.saved_dispatch <- dispatch;
  t.in_kernel <- true

let wake_if_due t ~round =
  match t.state with
  | Blocked { wake_round; _ } when wake_round <= round -> t.state <- Ready
  | Blocked _ | Ready | Exited -> ()

let take_saved t =
  match t.saved_regs with
  | None -> None
  | Some regs ->
      let d = t.saved_dispatch in
      t.saved_regs <- None;
      t.saved_dispatch <- Queue.create ();
      Some (regs, d)

let prepend_script t acts = t.script <- acts @ t.script

let pp ppf t =
  let state =
    match t.state with
    | Ready -> "ready"
    | Blocked { yield_id; wake_round } ->
        Printf.sprintf "blocked(%d until %d)" yield_id wake_round
    | Exited -> "exited"
  in
  Format.fprintf ppf "[%d] %s %s (%d syscalls)" t.pid t.name state t.syscall_count
