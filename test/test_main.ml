let () =
  Alcotest.run "hpcfs"
    [
      ("util", Test_util.suite);
      ("sim", Test_sim.suite);
      ("fs", Test_fs.suite);
      ("fdata-equiv", Test_fdata_equiv.suite);
      ("ns-equiv", Test_namespace_equiv.suite);
      ("trace", Test_trace.suite);
      ("codec", Test_codec.suite);
      ("posix", Test_posix.suite);
      ("md", Test_md.suite);
      ("mpiio", Test_mpiio.suite);
      ("hdf5", Test_hdf5.suite);
      ("formats", Test_formats.suite);
      ("core", Test_core.suite);
      ("apps", Test_apps.suite);
      ("bb", Test_bb.suite);
      ("wal", Test_wal.suite);
      ("staging", Test_staging_golden.suite @ Test_staging_core.suite);
      ("ownership", Test_ownership.suite);
      ("fault", Test_fault.suite @ Test_faults_golden.suite);
      ("wl", Test_wl.suite);
      ("obs", Test_obs.suite);
      ("integration", Test_integration.suite);
      ("validation", Test_validation.suite);
    ]
