(** Wall-clock throughput benchmark for the two execution engines.

    Every other experiment in this suite measures {e simulated} cycles;
    this one measures real elapsed time, because the engine
    ([Os.create ~engine]) changes only how fast the host executes the
    guest, never what the guest does.  Each workload runs once on the
    reference engine (the byte-level baseline) and once on the fast
    engine (software TLBs, decode-once superblocks and view tags; see
    DESIGN.md §9, §10, §14) and reports guest instructions retired per
    wall-clock second, timing only the [Os.run] spans (view builds and
    profiling are excluded from both the numerator and the denominator).

    Wall-clock numbers vary run to run and are {e recorded, never
    gated}; the TLB, superblock and flush-cause counters and instruction
    counts come from one deterministic pass and are pinned by
    [bench/check.exe BENCH_perf.json]. *)

type counters = {
  c_instructions : int;
  c_cycles : int;
  c_i_hits : int;
  c_i_misses : int;
  c_d_hits : int;
  c_d_misses : int;
  c_i_flushes : int;
  c_d_flushes : int;
  c_sb_built : int;
  c_sb_hits : int;
  c_sb_invals : int;
  c_sb_chains : int;
  c_sb_restamps : int;
      (** in-place superblock tier restamps — the per-switch revalidation
          tax the global stamp and the tag memo remove *)
  c_fl_growth : int;  (** [tlb.flushes{growth}]: guest RAM growth *)
  c_fl_explicit : int;  (** [tlb.flushes{explicit}]: view retirement *)
}

type arm = {
  a_label : string;
      (** ["reference+views"], ["fast+noviews"], … for UnixBench;
          ["reference"] / ["fast"] for httperf *)
  a_engine : Fc_machine.Os.engine;
  a_views : bool;
  a_reps : int;
  a_seconds : float;
      (** minimum wall clock across the reps — the least-interrupted
          pass, robust to host scheduling noise *)
  a_ips : float;      (** guest instructions per wall-clock second *)
  a_counters : counters;
      (** from one deterministic pass — identical for every rep, so
          independent of [reps] / [--fast] *)
}

val schema_version : int
(** The [BENCH_perf.json] schema (2: one reference and one fast arm per
    workload). *)

type t = {
  reps : int;
  unixbench : arm list;
      (** \{reference, fast\} × \{views on (top + apache loaded,
          residents running), views off\} over the nine UnixBench
          subtests *)
  unixbench_speedup : float;  (** fast vs reference ips ratio, views on *)
  unixbench_speedup_noviews : float;
  httperf : arm list;
      (** apache request batch, view loaded: reference, fast *)
  httperf_speedup : float;
  cold : float * int * float;
      (** (seconds, instructions, ips) for a syscall loop entered with
          empty TLBs *)
  warm : float * int * float;
      (** the same loop run second in the same guest — kernel working
          set already cached *)
}

val run : ?reps:int -> Profiles.t -> t
(** Default 3 reps; recorded wall time is the minimum across reps,
    counters come from rep 1 only. *)

val to_json : t -> Fc_obs.Jsonx.t
val render : t -> string
