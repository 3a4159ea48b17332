(* Tests for the benchmark harness itself: registry integrity, driver
   invariants (ops counted, reclamation books balanced, stalled
   threads joined), trim mode, and the figure definitions. *)

open Workload

let quick_params ~threads =
  {
    Driver.default_params with
    Driver.threads;
    duration = 0.08;
    prefill = 200;
    key_range = 1_000;
    cfg = Smr.Config.paper ~nthreads:threads;
    sample_every = 0.002;
  }

(* ------------------------------------------------------------------ *)
(* Registry *)

let test_registry_lookup () =
  let s = Registry.find_scheme "hyaline" in
  Alcotest.(check string) "case-insensitive" "Hyaline" s.Registry.s_name;
  let d = Registry.find_structure "hashmap" in
  Alcotest.(check string) "structure" "hashmap" d.Registry.d_name;
  (match Registry.find_scheme "nope" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "unknown scheme accepted");
  match Registry.find_structure "nope" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "unknown structure accepted"

let test_registry_counts () =
  Alcotest.(check int) "17 schemes" 17 (List.length Registry.schemes);
  Alcotest.(check int) "4 structures" 4 (List.length Registry.structures)

let test_registry_names_unique () =
  let names = List.map (fun s -> s.Registry.s_name) Registry.schemes in
  Alcotest.(check int) "unique scheme names"
    (List.length names)
    (List.length (List.sort_uniq compare names))

let test_with_backend () =
  let check name backend expect =
    Alcotest.(check string)
      (Printf.sprintf "%s + %s" name backend)
      expect
      (Registry.scheme_with_backend name ~backend)
  in
  check "Hyaline" "packed" "Hyaline(packed)";
  check "Hyaline-S" "packed" "Hyaline-S(packed)";
  check "Hyaline-1" "packed" "Hyaline-1(packed)";
  check "Hyaline-1S" "packed" "Hyaline-1S(packed)";
  check "Hyaline" "llsc" "Hyaline(llsc)";
  (* Re-basing a suffixed scheme swaps the backend, not stacks it. *)
  check "Hyaline(llsc)" "packed" "Hyaline(packed)";
  check "Hyaline(packed)" "default" "Hyaline";
  check "Hyaline" "dwcas" "Hyaline";
  (* Schemes without the variant pass through unchanged so mapping a
     sweep list stays total. *)
  check "Epoch" "packed" "Epoch";
  check "HP" "packed" "HP";
  check "Hyaline-1" "llsc" "Hyaline-1"

let test_compatibility_matrix () =
  let bonsai = Registry.find_structure "bonsai" in
  let hp = Registry.find_scheme "HP" in
  let he = Registry.find_scheme "HE" in
  let ebr = Registry.find_scheme "Epoch" in
  Alcotest.(check bool) "no HP on bonsai" false
    (Registry.compatible ~structure:bonsai ~scheme:hp);
  Alcotest.(check bool) "no HE on bonsai" false
    (Registry.compatible ~structure:bonsai ~scheme:he);
  Alcotest.(check bool) "Epoch on bonsai ok" true
    (Registry.compatible ~structure:bonsai ~scheme:ebr);
  let list = Registry.find_structure "list" in
  Alcotest.(check bool) "HP on list ok" true
    (Registry.compatible ~structure:list ~scheme:hp)

let test_registry_instantiates_all_pairs () =
  List.iter
    (fun d ->
      List.iter
        (fun s ->
          if Registry.compatible ~structure:d ~scheme:s then begin
            let module M =
              (val Registry.make_map d s : Dstruct.Map_intf.S)
            in
            let m = M.create ~cfg:(Smr.Config.paper ~nthreads:2) () in
            M.enter m ~tid:0;
            Alcotest.(check bool)
              (Printf.sprintf "%s/%s insert" d.Registry.d_name
                 s.Registry.s_name)
              true (M.insert m ~tid:0 1 1);
            Alcotest.(check (option int)) "get" (Some 1) (M.get m ~tid:0 1);
            M.leave m ~tid:0
          end)
        Registry.schemes)
    Registry.structures

(* ------------------------------------------------------------------ *)
(* Driver *)

let test_driver_basic_run () =
  let structure = Registry.find_structure "hashmap" in
  let scheme = Registry.find_scheme "Hyaline" in
  let r = Driver.run ~structure ~scheme (quick_params ~threads:2) in
  Alcotest.(check bool) "did work" true (r.Driver.ops > 0);
  Alcotest.(check bool) "throughput positive" true (r.Driver.throughput > 0.0);
  Alcotest.(check bool) "duration sane" true
    (r.Driver.duration > 0.0 && r.Driver.duration < 5.0);
  Alcotest.(check bool) "sampled" true (r.Driver.samples > 0);
  Alcotest.(check bool) "frees <= retires" true
    (r.Driver.frees <= r.Driver.retires)

let test_driver_reclaims_with_every_scheme () =
  let structure = Registry.find_structure "hashmap" in
  List.iter
    (fun (s : Registry.scheme) ->
      let r = Driver.run ~structure ~scheme:s (quick_params ~threads:2) in
      if s.Registry.s_name <> "Leaky" then
        Alcotest.(check bool)
          (Printf.sprintf "%s reclaims (%d/%d)" s.Registry.s_name
             r.Driver.frees r.Driver.retires)
          true
          (r.Driver.frees > 0))
    Registry.schemes

let test_driver_stalled_threads_join () =
  let structure = Registry.find_structure "hashmap" in
  let scheme = Registry.find_scheme "Hyaline-S" in
  let p = { (quick_params ~threads:1) with Driver.stalled = 2 } in
  let p = { p with Driver.cfg = Smr.Config.paper ~nthreads:3 } in
  let r = Driver.run ~structure ~scheme p in
  (* If stalled domains failed to join, run would hang (test timeout
     would catch it); check bookkeeping instead. *)
  Alcotest.(check int) "stalled recorded" 2 r.Driver.stalled;
  Alcotest.(check bool) "worker made progress" true (r.Driver.ops > 0)

let test_driver_trim_mode () =
  let structure = Registry.find_structure "hashmap" in
  let scheme = Registry.find_scheme "Hyaline" in
  let p = { (quick_params ~threads:2) with Driver.use_trim = true } in
  let r = Driver.run ~structure ~scheme p in
  Alcotest.(check bool) "trim mode works" true (r.Driver.ops > 0);
  Alcotest.(check bool) "trim mode reclaims" true (r.Driver.frees > 0)

let test_driver_rejects_incompatible () =
  let structure = Registry.find_structure "bonsai" in
  let scheme = Registry.find_scheme "HP" in
  match Driver.run ~structure ~scheme (quick_params ~threads:1) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "HP on bonsai should be rejected"

let test_driver_rejects_bad_prefill () =
  let structure = Registry.find_structure "hashmap" in
  let scheme = Registry.find_scheme "Leaky" in
  let p = { (quick_params ~threads:1) with Driver.prefill = 900 } in
  match Driver.run ~structure ~scheme p with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "prefill > key_range/2 should be rejected"

let test_driver_mixes () =
  (* Write-heavy produces retires; read-mostly produces fewer but,
     with node-replacing puts, not zero. *)
  let structure = Registry.find_structure "hashmap" in
  let scheme = Registry.find_scheme "Epoch" in
  let heavy =
    Driver.run ~structure ~scheme
      { (quick_params ~threads:1) with Driver.mix = Driver.write_heavy }
  in
  let mostly =
    Driver.run ~structure ~scheme
      { (quick_params ~threads:1) with Driver.mix = Driver.read_mostly }
  in
  Alcotest.(check bool) "write-heavy retires" true (heavy.Driver.retires > 0);
  Alcotest.(check bool) "read-mostly retires too (puts replace)" true
    (mostly.Driver.retires > 0);
  Alcotest.(check bool) "but fewer per op" true
    (float_of_int mostly.Driver.retires /. float_of_int mostly.Driver.ops
    < float_of_int heavy.Driver.retires /. float_of_int heavy.Driver.ops)

(* ------------------------------------------------------------------ *)
(* Figures *)

let tiny_scale =
  {
    Figures.quick with
    Figures.threads = [ 1 ];
    stalled = [ 0; 1 ];
    duration = 0.05;
    prefill = 100;
    key_range = 400;
    list_prefill = 50;
    list_key_range = 200;
  }

let test_figures_sweep_emits () =
  let rows = ref 0 in
  Figures.sweep ~sc:tiny_scale ~structure_name:"hashmap"
    ~schemes:[ "Epoch"; "Hyaline" ] ~mix:Driver.write_heavy
    ~emit:(fun _ -> incr rows);
  Alcotest.(check int) "2 schemes x 1 thread-count" 2 !rows

let test_figures_sweep_skips_incompatible () =
  let rows = ref 0 in
  Figures.sweep ~sc:tiny_scale ~structure_name:"bonsai"
    ~schemes:[ "HP"; "HE"; "Hyaline" ] ~mix:Driver.write_heavy
    ~emit:(fun _ -> incr rows);
  Alcotest.(check int) "HP/HE skipped on bonsai" 1 !rows

let test_figures_robustness_emits () =
  let rows = ref 0 in
  let adaptive_seen = ref false in
  Figures.robustness ~sc:tiny_scale ~active:1 ~emit:(fun r ->
      incr rows;
      if r.Driver.scheme = "Hyaline-S(adapt)" then adaptive_seen := true);
  (* 8 named schemes + the adaptive extra, per stalled count (0 and 1). *)
  Alcotest.(check int) "rows" 18 !rows;
  Alcotest.(check bool) "adaptive variant present" true !adaptive_seen

let test_figures_trimming_emits () =
  let with_trim = ref 0 and without = ref 0 in
  Figures.trimming ~sc:tiny_scale ~emit:(fun r ->
      if String.length r.Driver.scheme > 5
         && String.sub r.Driver.scheme
              (String.length r.Driver.scheme - 5)
              5
            = "+trim"
      then incr with_trim
      else incr without);
  Alcotest.(check int) "trim rows" 4 !with_trim;
  Alcotest.(check int) "no-trim rows" 4 !without

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let test_table1_renders () =
  let buf = Buffer.create 256 in
  let ppf = Format.formatter_of_buffer buf in
  Figures.table1 ppf;
  Format.pp_print_flush ppf ();
  let out = Buffer.contents buf in
  List.iter
    (fun needle ->
      Alcotest.(check bool)
        (Printf.sprintf "mentions %s" needle)
        true (contains out needle))
    [ "Hyaline-1S"; "Epoch"; "~O(1)" ]

let suites =
  [
    ( "workload.registry",
      [
        Alcotest.test_case "lookup" `Quick test_registry_lookup;
        Alcotest.test_case "counts" `Quick test_registry_counts;
        Alcotest.test_case "unique names" `Quick test_registry_names_unique;
        Alcotest.test_case "backend selection" `Quick test_with_backend;
        Alcotest.test_case "compatibility matrix" `Quick
          test_compatibility_matrix;
        Alcotest.test_case "all pairs instantiate" `Quick
          test_registry_instantiates_all_pairs;
      ] );
    ( "workload.driver",
      [
        Alcotest.test_case "basic run" `Slow test_driver_basic_run;
        Alcotest.test_case "all schemes reclaim" `Slow
          test_driver_reclaims_with_every_scheme;
        Alcotest.test_case "stalled threads join" `Slow
          test_driver_stalled_threads_join;
        Alcotest.test_case "trim mode" `Slow test_driver_trim_mode;
        Alcotest.test_case "rejects incompatible pair" `Quick
          test_driver_rejects_incompatible;
        Alcotest.test_case "rejects bad prefill" `Quick
          test_driver_rejects_bad_prefill;
        Alcotest.test_case "mix shapes" `Slow test_driver_mixes;
      ] );
    ( "workload.figures",
      [
        Alcotest.test_case "sweep emits" `Slow test_figures_sweep_emits;
        Alcotest.test_case "sweep skips incompatible" `Slow
          test_figures_sweep_skips_incompatible;
        Alcotest.test_case "robustness emits" `Slow
          test_figures_robustness_emits;
        Alcotest.test_case "trimming emits" `Slow test_figures_trimming_emits;
        Alcotest.test_case "table1 renders" `Quick test_table1_renders;
      ] );
  ]

(* ------------------------------------------------------------------ *)
(* Key distributions *)

let test_keydist_uniform () =
  let d = Keydist.uniform ~range:100 in
  let rng = Prims.Rng.create ~seed:5 in
  for _ = 1 to 1_000 do
    let k = Keydist.draw d rng in
    if k < 0 || k >= 100 then Alcotest.fail "out of range"
  done;
  Alcotest.(check int) "range" 100 (Keydist.range d);
  Alcotest.(check string) "label" "uniform" (Keydist.describe d)

let test_keydist_zipf_range_and_skew () =
  let range = 200 in
  let freq theta =
    let d = Keydist.zipf ~theta ~range () in
    let rng = Prims.Rng.create ~seed:7 in
    let hits = Array.make range 0 in
    for _ = 1 to 20_000 do
      let k = Keydist.draw d rng in
      if k < 0 || k >= range then Alcotest.fail "out of range";
      hits.(k) <- hits.(k) + 1
    done;
    hits
  in
  let h1 = freq 0.99 and h2 = freq 1.5 in
  (* Rank 0 is the hottest key and skew grows with theta. *)
  Alcotest.(check bool) "rank0 hot (0.99)" true (h1.(0) > h1.(50));
  Alcotest.(check bool) "hotter at higher theta" true (h2.(0) > h1.(0));
  (* Roughly Zipf: the hottest key under theta=0.99 takes ~1/H_n of
     mass; sanity-bound it between 10% and 30% for n=200. *)
  Alcotest.(check bool)
    (Printf.sprintf "mass share sane (%d/20000)" h1.(0))
    true
    (h1.(0) > 2_000 && h1.(0) < 6_000)

let test_keydist_zipf_deterministic () =
  let d = Keydist.zipf ~range:50 () in
  let a = Prims.Rng.create ~seed:11 and b = Prims.Rng.create ~seed:11 in
  for _ = 1 to 200 do
    Alcotest.(check int) "same stream" (Keydist.draw d a) (Keydist.draw d b)
  done

let test_keydist_invalid () =
  (match Keydist.zipf ~range:0 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "range 0 accepted");
  match Keydist.zipf ~theta:(-1.0) ~range:10 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative theta accepted"

let test_driver_zipf_run () =
  let structure = Registry.find_structure "hashmap" in
  let scheme = Registry.find_scheme "Hyaline" in
  let p =
    {
      (quick_params ~threads:2) with
      Driver.dist = Some (Keydist.zipf ~range:1_000 ());
    }
  in
  let r = Driver.run ~structure ~scheme p in
  Alcotest.(check bool) "skewed run works" true (r.Driver.ops > 0);
  Alcotest.(check bool) "reclaims" true (r.Driver.frees > 0)

let test_run_many_aggregates () =
  let structure = Registry.find_structure "hashmap" in
  let scheme = Registry.find_scheme "Epoch" in
  let p = quick_params ~threads:1 in
  let one = Driver.run ~structure ~scheme p in
  let three = Driver.run_many ~repeat:3 ~structure ~scheme p in
  Alcotest.(check bool) "ops accumulate over repeats" true
    (three.Driver.ops > one.Driver.ops);
  Alcotest.(check bool) "duration accumulates" true
    (three.Driver.duration > 2.5 *. one.Driver.duration /. 2.0);
  Alcotest.(check bool) "throughput same order" true
    (three.Driver.throughput > one.Driver.throughput /. 4.0
    && three.Driver.throughput < one.Driver.throughput *. 4.0)

(* ------------------------------------------------------------------ *)
(* The stalled-reader judge *)

let judge r = Stalled.judge ~slack:64 ~bound:500 ~floor:1500 r
let stalled_row ~robust ~at_n ~at_2n = { Stalled.name = "x"; robust; at_n; at_2n }

let test_stalled_judge_robust () =
  Alcotest.(check bool) "flat robust row passes" true
    (judge (stalled_row ~robust:true ~at_n:40 ~at_2n:60) = None);
  Alcotest.(check bool) "robust row growing past the slack fails" true
    (judge (stalled_row ~robust:true ~at_n:10 ~at_2n:75) <> None);
  Alcotest.(check bool) "flat robust row at the bound fails" true
    (judge (stalled_row ~robust:true ~at_n:500 ~at_2n:500) <> None)

let test_stalled_judge_nonrobust () =
  Alcotest.(check bool) "growing non-robust row passes" true
    (judge (stalled_row ~robust:false ~at_n:1000 ~at_2n:2000) = None);
  Alcotest.(check bool) "non-robust row that does not grow fails" true
    (judge (stalled_row ~robust:false ~at_n:1000 ~at_2n:1064) <> None);
  Alcotest.(check bool) "non-robust row ending at the floor fails" true
    (judge (stalled_row ~robust:false ~at_n:100 ~at_2n:1500) <> None);
  Alcotest.(check bool) "contrast needs both kinds" true
    (Stalled.contrast [ stalled_row ~robust:true ~at_n:0 ~at_2n:0 ] <> None)

(* The flag comes from the scheme's module, so every CLI spelling of a
   scheme is judged alike. *)
let test_stalled_flag_spelling () =
  List.iter
    (fun (name, robust) ->
      Alcotest.(check bool) name robust
        (Stalled.robust (Registry.find_scheme name)))
    [
      ("hyalines", true);
      ("Hyaline-S", true);
      ("hyaline_s", true);
      ("hyaline1s", true);
      ("ebr", false);
      ("Epoch", false);
    ];
  Alcotest.(check int) "slack at Config.default" 64
    (Stalled.slack Smr.Config.default)

let extra_suites =
  [
    ( "workload.stalled",
      [
        Alcotest.test_case "robust rows judged as a slope" `Quick
          test_stalled_judge_robust;
        Alcotest.test_case "non-robust rows must grow" `Quick
          test_stalled_judge_nonrobust;
        Alcotest.test_case "flag independent of spelling" `Quick
          test_stalled_flag_spelling;
      ] );
    ( "workload.keydist",
      [
        Alcotest.test_case "uniform" `Quick test_keydist_uniform;
        Alcotest.test_case "zipf range and skew" `Quick
          test_keydist_zipf_range_and_skew;
        Alcotest.test_case "zipf deterministic" `Quick
          test_keydist_zipf_deterministic;
        Alcotest.test_case "invalid args" `Quick test_keydist_invalid;
        Alcotest.test_case "driver under zipf" `Slow test_driver_zipf_run;
        Alcotest.test_case "run_many aggregates" `Slow
          test_run_many_aggregates;
      ] );
  ]

let suites = suites @ extra_suites
