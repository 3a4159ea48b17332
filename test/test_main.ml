(* Child mode for tests that re-execute this binary in a fresh process. *)
let () =
  if Sys.getenv_opt Test_replica.crc_race_env <> None then
    exit (Test_replica.crc_race_child ())

let () =
  Alcotest.run "hyaline-repro"
    (List.concat
       [
         Test_prims.suites;
         Test_mpool.suites;
         Test_obs.suites;
         Test_smr.suites;
         Test_hyaline.suites;
         Test_dstruct.suites;
         Test_schedcheck.suites;
         Test_workload.suites;
         Test_plot.suites;
         Test_lincheck.suites;
         Test_queue.suites;
         Test_lfrc.suites;
         Test_service.suites;
         Test_shm.suites;
         Test_shmalloc.suites;
         Test_replica.suites;
         Test_cluster.suites;
         Test_chaos.suites;
       ])
