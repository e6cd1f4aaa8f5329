let () =
  Alcotest.run "facechange"
    (Test_ranges.suites @ Test_isa.suites @ Test_mem.suites @ Test_sharing.suites @ Test_kernel.suites @ Test_machine.suites @ Test_core.suites @ Test_hypervisor.suites @ Test_apps.suites
     @ Test_attacks.suites @ Test_benchkit.suites @ Test_invariants.suites @ Test_behavior.suites @ Test_smp.suites @ Test_calltrace.suites @ Test_synth.suites
     @ Test_obs.suites @ Test_faults.suites @ Test_tlb.suites @ Test_fleet.suites @ Test_spares.suites @ Test_sblocks.suites @ Test_telemetry.suites @ Test_snapshot.suites @ Test_check.suites)
