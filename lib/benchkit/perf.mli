(** Host-time benchmark for the two execution engines.

    Every other experiment in this suite measures {e simulated} cycles;
    this one measures host time, because the engine ([Os.create
    ~engine]) changes only how fast the host executes the guest, never
    what the guest does.  Each workload runs once on the reference engine
    (the byte-level baseline) and once on the fast engine (software TLBs,
    decode-once superblocks and view tags; see DESIGN.md §9, §10, §14),
    through the same drivers Figs. 6 and 7 use.

    An arm's time is one {!Fc_obs.Layers} accountant following each of
    its guests: it times only the [Os.run] stretches (profiling, boot and
    view builds are outside them) and splits them by layer.  The
    reference-vs-fast speed-ups are ratios of [run_slice] self time, the
    engine's own time.

    Host times vary run to run and are {e recorded, never gated}; the
    TLB, superblock and flush-cause counters and instruction counts are
    deterministic and pinned by [bench/check.exe BENCH_perf.json]. *)

type arm = {
  a_label : string;
      (** ["reference+views"], ["fast+noviews"], … for UnixBench;
          ["reference"] / ["fast"] for httperf *)
  a_engine : Fc_machine.Os.engine;
  a_views : bool;
  a_layers : Fc_obs.Layers.t;  (** the arm's host time, by layer *)
  a_counters : (string * int) list;
      (** registry counters summed over the arm's guests, by JSON key:
          instructions, cycles, TLB hits/misses/flushes, superblock
          builds/hits/invalidations and the growth and
          explicit [tlb.flushes] causes *)
}

val schema_version : int
(** The [BENCH_perf.json] schema (4: one pass per arm, host time split
    by layer, no chain or restamp counters). *)

type t = {
  unixbench : arm list;
      (** \{reference, fast\} × \{views on (top + apache loaded,
          residents running), views off\} over the nine UnixBench
          subtests *)
  unixbench_speedup : float;
      (** reference over fast [run_slice] self time, views on *)
  unixbench_speedup_noviews : float;
  httperf : arm list;
      (** apache request batch, view loaded: reference, fast *)
  httperf_speedup : float;
  cold_instructions : int;
      (** a syscall loop entered with empty TLBs *)
  warm_instructions : int;
      (** the same loop run second in the same guest — kernel working
          set already cached *)
}

val run : Profiles.t -> t

val to_json : t -> Fc_obs.Jsonx.t
val render : t -> string
