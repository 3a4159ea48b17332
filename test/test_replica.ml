(* lib/replica: checksummed record codec, the injectable store, WAL
   group commit and crash recovery (including seeded corruption fuzz),
   atomic snapshots, and the primary/follower/failover protocol with
   Chaos.Oracle as the judge. *)

module Codec = Service.Codec
module Shard = Service.Shard
module Store = Replica.Store
module Dirty = Replica.Dirty
module Wal = Replica.Wal
module Snapshot = Replica.Snapshot
module Primary = Replica.Primary
module Follower = Replica.Follower
module Failover = Replica.Failover

(* ------------------------------------------------------------------ *)
(* Codec: CRC, records, snapshot frames, fold_frames *)

let test_crc32_vector () =
  (* The IEEE-802.3 check value: crc32("123456789") = 0xCBF43926. *)
  Alcotest.(check int)
    "crc32 check vector" 0xCBF43926
    (Codec.crc32 "123456789" ~pos:0 ~len:9)

(* A fresh daemon's first CRCs run on several shard consumer domains
   at once (the first WAL records of two shards).  The race only
   exists on a process's very first CRC, so each trial is a fresh
   child process — this test binary re-executed with
   [crc_race_env] set — whose domains all make their first
   [Codec.crc32] call together; each must return the check vector. *)
let crc_race_env = "HYALINE_TEST_CRC_RACE_CHILD"

let crc_race_child () =
  let ndomains = 4 in
  let ready = Atomic.make 0 and go = Atomic.make false in
  let racer () =
    Atomic.incr ready;
    while not (Atomic.get go) do
      Domain.cpu_relax ()
    done;
    match Codec.crc32 "123456789" ~pos:0 ~len:9 with
    | v -> v = 0xCBF43926
    | exception e ->
        prerr_endline ("first crc32 raised " ^ Printexc.to_string e);
        false
  in
  let ds = List.init ndomains (fun _ -> Domain.spawn racer) in
  while Atomic.get ready < ndomains do
    Domain.cpu_relax ()
  done;
  Atomic.set go true;
  let results = List.map Domain.join ds in
  if List.for_all Fun.id results then 0 else 1

let test_crc32_first_use_race () =
  let env = Array.append (Unix.environment ()) [| crc_race_env ^ "=1" |] in
  let trials = 20 in
  let failed = ref 0 in
  for _ = 1 to trials do
    let pid =
      Unix.create_process_env Sys.executable_name
        [| Sys.executable_name |]
        env Unix.stdin Unix.stdout Unix.stderr
    in
    match Unix.waitpid [] pid with
    | _, Unix.WEXITED 0 -> ()
    | _ -> incr failed
  done;
  Alcotest.(check int) "fresh processes whose first racing crc32 failed" 0
    !failed

let frame_payloads s =
  let payloads, tail =
    Codec.fold_frames (Codec.string_source s) (fun acc p -> p :: acc) []
  in
  (List.rev payloads, tail)

let test_wal_record_roundtrip () =
  let cases =
    [
      (1, Codec.Set { key = 0; value = 0 });
      (42, Codec.Set { key = -7; value = max_int });
      (9999999, Codec.Unset min_int);
      (2, Codec.Unset 17);
    ]
  in
  let b = Buffer.create 64 in
  List.iter (fun (seq, m) -> Codec.encode_wal_record b ~seq m) cases;
  let payloads, tail = frame_payloads (Buffer.contents b) in
  Alcotest.(check bool) "clean tail" true (tail = None);
  Alcotest.(check int) "frame count" (List.length cases) (List.length payloads);
  List.iter2
    (fun (seq, m) payload ->
      let seq', m' = Codec.decode_wal_record payload in
      Alcotest.(check int) "seq" seq seq';
      Alcotest.(check string) "mutation" (Codec.mutation_to_string m)
        (Codec.mutation_to_string m'))
    cases payloads

let test_wal_record_detects_damage () =
  let b = Buffer.create 64 in
  Codec.encode_wal_record b ~seq:7 (Codec.Set { key = 5; value = 50 });
  let payloads, _ = frame_payloads (Buffer.contents b) in
  let payload = Bytes.copy (List.hd payloads) in
  (* Flip one bit anywhere in the payload: the CRC must catch it. *)
  for i = 0 to Bytes.length payload - 1 do
    let p = Bytes.copy payload in
    Bytes.set p i (Char.chr (Char.code (Bytes.get p i) lxor 0x10));
    match Codec.decode_wal_record p with
    | _ -> Alcotest.failf "bit flip at byte %d went undetected" i
    | exception Codec.Malformed _ -> ()
  done

let test_mutation_of_exec () =
  let put = Codec.Put { key = 1; value = 2 } in
  let cas = Codec.Cas { key = 1; expected = 2; desired = 3 } in
  let check name exp req rep =
    let got =
      Option.map Codec.mutation_to_string (Codec.mutation_of_exec req rep)
    in
    Alcotest.(check (option string))
      name
      (Option.map Codec.mutation_to_string exp)
      got
  in
  check "put created" (Some (Codec.Set { key = 1; value = 2 })) put Codec.Created;
  check "put updated" (Some (Codec.Set { key = 1; value = 2 })) put Codec.Updated;
  check "del deleted" (Some (Codec.Unset 1)) (Codec.Del 1) Codec.Deleted;
  check "cas ok logs its set" (Some (Codec.Set { key = 1; value = 3 })) cas
    Codec.Cas_ok;
  check "cas fail" None cas Codec.Cas_fail;
  check "get" None (Codec.Get 1) (Codec.Value 9);
  check "del miss" None (Codec.Del 1) Codec.Not_found;
  check "shed" None put Codec.Shed

let test_snap_frames_roundtrip () =
  let b = Buffer.create 64 in
  Codec.encode_snap_head b ~seq:123 ~count:2;
  Codec.encode_snap_kv b ~key:7 ~value:70;
  Codec.encode_snap_kv b ~key:(-1) ~value:0;
  let payloads, tail = frame_payloads (Buffer.contents b) in
  Alcotest.(check bool) "clean tail" true (tail = None);
  match payloads with
  | [ h; a; b' ] ->
      Alcotest.(check (pair int int)) "head" (123, 2) (Codec.decode_snap_head h);
      Alcotest.(check (pair int int)) "kv 1" (7, 70) (Codec.decode_snap_kv a);
      Alcotest.(check (pair int int)) "kv 2" (-1, 0) (Codec.decode_snap_kv b')
  | l -> Alcotest.failf "expected 3 frames, got %d" (List.length l)

let test_fold_frames_torn_tail () =
  let b = Buffer.create 64 in
  for seq = 1 to 3 do
    Codec.encode_wal_record b ~seq (Codec.Set { key = seq; value = seq })
  done;
  let whole = Buffer.contents b in
  let payloads, _ = frame_payloads whole in
  let last_len = 4 + Bytes.length (List.nth payloads 2) in
  (* Chop k bytes off the final frame for every possible k: fold must
     deliver the two complete frames and report the torn remainder. *)
  for k = 1 to last_len do
    let cut = String.sub whole 0 (String.length whole - k) in
    let got, tail = frame_payloads cut in
    if k = last_len then begin
      Alcotest.(check int) "clean boundary" 2 (List.length got);
      Alcotest.(check bool) "no tail at boundary" true (tail = None)
    end
    else begin
      Alcotest.(check int) "frames before tear" 2 (List.length got);
      Alcotest.(check (option int)) "torn bytes" (Some (last_len - k)) tail
    end
  done

(* ------------------------------------------------------------------ *)
(* Store: mem crash semantics, fs atomic publish *)

let test_mem_store_crash () =
  let store, h = Store.Mem.create () in
  let w = store.Store.s_append "f" in
  w.Store.w_append "synced";
  w.Store.w_sync ();
  w.Store.w_append "-pending";
  Alcotest.(check string) "read sees pending" "synced-pending"
    (store.Store.s_read "f");
  Alcotest.(check int) "synced bytes" 6 (Store.Mem.synced_bytes h "f");
  Alcotest.(check int) "pending bytes" 8 (Store.Mem.pending_bytes h "f");
  Store.Mem.crash h;
  Alcotest.(check string) "unsynced bytes vanished" "synced"
    (store.Store.s_read "f");
  Alcotest.(check int) "one sync counted" 1 (Store.Mem.syncs h);
  (* Atomic publish is durable without an explicit sync. *)
  store.Store.s_write "g" "published";
  Store.Mem.crash h;
  Alcotest.(check string) "publish survived crash" "published"
    (store.Store.s_read "g");
  Alcotest.(check (list string)) "list is sorted" [ "f"; "g" ]
    (store.Store.s_list ())

let with_tmp_dir f =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "replica-test-%d-%d" (Unix.getpid ()) (Random.bits ()))
  in
  Fun.protect
    ~finally:(fun () ->
      ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote dir))))
    (fun () -> f dir)

let test_fs_store () =
  with_tmp_dir @@ fun dir ->
  let store = Store.fs ~dir in
  let w = store.Store.s_append "a.seg" in
  w.Store.w_append "hello ";
  w.Store.w_append "world";
  w.Store.w_sync ();
  w.Store.w_close ();
  Alcotest.(check string) "append + read" "hello world"
    (store.Store.s_read "a.seg");
  store.Store.s_write "b.snap" "bindings";
  Alcotest.(check string) "atomic publish" "bindings"
    (store.Store.s_read "b.snap");
  Alcotest.(check (list string)) "sorted listing, no tmp"
    [ "a.seg"; "b.snap" ] (store.Store.s_list ());
  store.Store.s_delete "a.seg";
  store.Store.s_delete "a.seg" (* idempotent *);
  Alcotest.(check (list string)) "deleted" [ "b.snap" ] (store.Store.s_list ())

(* ------------------------------------------------------------------ *)
(* WAL: group commit, reopen, rotation, truncation, torn commit *)

let mset k = Codec.Set { key = k; value = k * 10 }

let append_run w lo hi =
  for k = lo to hi do
    ignore (Wal.append w (mset k))
  done;
  Wal.commit w

let test_wal_group_commit () =
  let store, h = Store.Mem.create () in
  let w, r = Wal.open_ ~store ~shard:0 () in
  Alcotest.(check int) "fresh log" 0 r.Wal.r_last_seq;
  append_run w 1 4;
  append_run w 5 7;
  append_run w 8 10;
  Alcotest.(check int) "one sync per commit, not per record" 3
    (Store.Mem.syncs h);
  Alcotest.(check int) "committed" 10 (Wal.committed_seq w);
  Wal.commit w;
  Alcotest.(check int) "empty commit costs no fsync" 3 (Store.Mem.syncs h);
  (match Wal.read_from w ~from:0 ~max:5 with
  | `Batch (records, last) ->
      Alcotest.(check int) "read_from last" 10 last;
      Alcotest.(check (list int)) "first five seqs" [ 1; 2; 3; 4; 5 ]
        (List.map fst records)
  | `Too_old _ -> Alcotest.fail "unexpected Too_old");
  (match Wal.read_from w ~from:10 ~max:5 with
  | `Batch ([], 10) -> ()
  | _ -> Alcotest.fail "caught-up read should be an empty batch");
  Wal.close w;
  (* Reopen: everything committed is still there. *)
  let w2, r2 = Wal.open_ ~store ~shard:0 () in
  Alcotest.(check int) "reopen records" 10 r2.Wal.r_records;
  Alcotest.(check int) "reopen last seq" 10 r2.Wal.r_last_seq;
  Alcotest.(check int) "reopen truncated nothing" 0 r2.Wal.r_truncated_bytes;
  append_run w2 11 11;
  Alcotest.(check int) "seqs continue" 11 (Wal.committed_seq w2);
  Wal.close w2

let test_wal_rotation_and_truncate () =
  let store, _ = Store.Mem.create () in
  (* Tiny segments force rotation every couple of commits. *)
  let w, _ = Wal.open_ ~store ~shard:3 ~segment_bytes:128 () in
  for run = 0 to 9 do
    append_run w ((run * 5) + 1) ((run + 1) * 5)
  done;
  Alcotest.(check bool) "rotated" true (Wal.segments w > 1);
  Wal.close w;
  let records, r = Wal.scan ~store ~shard:3 in
  Alcotest.(check int) "scan sees all records" 50 (List.length records);
  Alcotest.(check int) "scan last seq" 50 r.Wal.r_last_seq;
  let w2, _ = Wal.open_ ~store ~shard:3 ~segment_bytes:128 () in
  let segs_before = Wal.segments w2 in
  Wal.truncate_upto w2 ~seq:40;
  Alcotest.(check bool) "segments pruned" true (Wal.segments w2 < segs_before);
  Alcotest.(check int) "base advanced" 40 (Wal.base_seq w2);
  (match Wal.read_from w2 ~from:0 ~max:10 with
  | `Too_old base -> Alcotest.(check int) "too old names the base" 40 base
  | `Batch _ -> Alcotest.fail "truncated window must be Too_old");
  (match Wal.read_from w2 ~from:40 ~max:100 with
  | `Batch (records, 50) ->
      Alcotest.(check (list int)) "tail intact"
        [ 41; 42; 43; 44; 45; 46; 47; 48; 49; 50 ]
        (List.map fst records)
  | _ -> Alcotest.fail "tail read failed");
  Wal.close w2

let test_wal_torn_commit () =
  let store, h = Store.Mem.create () in
  let w, _ = Wal.open_ ~store ~shard:0 () in
  append_run w 1 5;
  Wal.arm_torn_commit w;
  for k = 6 to 8 do
    ignore (Wal.append w (mset k))
  done;
  (match Wal.commit w with
  | () -> Alcotest.fail "armed commit must raise Crashed"
  | exception Wal.Crashed -> ());
  Alcotest.(check int) "nothing promoted" 5 (Wal.committed_seq w);
  (match Wal.append w (mset 9) with
  | _ -> Alcotest.fail "dead log must refuse appends"
  | exception Wal.Crashed -> ());
  Store.Mem.crash h;
  let w2, r = Wal.open_ ~store ~shard:0 () in
  Alcotest.(check int) "acked history only" 5 r.Wal.r_records;
  Alcotest.(check bool) "torn tail truncated" true (r.Wal.r_truncated_bytes > 0);
  Alcotest.(check bool) "truncated segment named" true
    (r.Wal.r_truncated_segment <> None);
  (* The log is writable again at the right seq. *)
  append_run w2 6 6;
  Alcotest.(check int) "resumes after acked" 6 (Wal.committed_seq w2);
  Wal.close w2

(* Seeded corruption fuzz: tail damage always truncates cleanly;
   mid-log damage is always a loud Corrupt naming a seq. *)

let build_fuzz_wal store =
  let w, _ = Wal.open_ ~store ~shard:0 ~segment_bytes:256 () in
  for run = 0 to 8 do
    append_run w ((run * 5) + 1) ((run + 1) * 5)
  done;
  Wal.close w;
  let segs =
    List.filter (fun n -> Filename.check_suffix n ".seg") (store.Store.s_list ())
  in
  assert (List.length segs > 2);
  segs

let test_wal_fuzz_tail_corruption () =
  for seed = 0 to 7 do
    let rng = Prims.Rng.create ~seed:(1000 + seed) in
    let store, _ = Store.Mem.create () in
    let segs = build_fuzz_wal store in
    let last = List.nth segs (List.length segs - 1) in
    let data = store.Store.s_read last in
    let len = String.length data in
    (* A just-rotated (hence empty or short) active segment has no
       frame to tear, so only the garbage-residue case applies. *)
    (match if len < 24 then 2 else Prims.Rng.below rng 3 with
    | 0 ->
        (* Torn write: the final frame loses its suffix. *)
        let cut = 1 + Prims.Rng.below rng (min 20 (len - 1)) in
        store.Store.s_write last (String.sub data 0 (len - cut))
    | 1 ->
        (* Bit rot inside the final record's bytes. *)
        let i = len - 1 - Prims.Rng.below rng (min 8 len) in
        let b = Bytes.of_string data in
        Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x40));
        store.Store.s_write last (Bytes.to_string b)
    | _ ->
        (* Crash residue: garbage appended past the last frame. *)
        let garbage =
          String.init
            (1 + Prims.Rng.below rng 16)
            (fun _ -> Char.chr (Prims.Rng.below rng 256))
        in
        store.Store.s_write last (data ^ garbage));
    match Wal.open_ ~store ~shard:0 ~segment_bytes:256 () with
    | w, r ->
        Alcotest.(check bool)
          (Printf.sprintf "seed %d: truncated some tail bytes" seed)
          true
          (r.Wal.r_truncated_bytes > 0);
        Alcotest.(check bool)
          (Printf.sprintf "seed %d: most records survive" seed)
          true
          (r.Wal.r_records >= 35);
        (* Recovery republished a clean log: a second scan is clean. *)
        let _, r2 = Wal.scan ~store ~shard:0 in
        Alcotest.(check int)
          (Printf.sprintf "seed %d: rescan clean" seed)
          0 r2.Wal.r_truncated_bytes;
        Wal.close w
    | exception Wal.Corrupt { reason; _ } ->
        Alcotest.failf "seed %d: tail damage must truncate, got Corrupt: %s"
          seed reason
  done

let test_wal_fuzz_midlog_corruption () =
  for seed = 0 to 7 do
    let rng = Prims.Rng.create ~seed:(2000 + seed) in
    let store, _ = Store.Mem.create () in
    let segs = build_fuzz_wal store in
    (* Damage a non-final segment: acknowledged history. *)
    let victim = List.nth segs (Prims.Rng.below rng (List.length segs - 1)) in
    let data = store.Store.s_read victim in
    let i = Prims.Rng.below rng (String.length data) in
    let b = Bytes.of_string data in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x04));
    store.Store.s_write victim (Bytes.to_string b);
    (match Wal.scan ~store ~shard:0 with
    | _ ->
        Alcotest.failf "seed %d: mid-log damage in %s went unnoticed" seed
          victim
    | exception Wal.Corrupt { seq; segment; _ } ->
        Alcotest.(check string)
          (Printf.sprintf "seed %d: corrupt names the segment" seed)
          victim segment;
        Alcotest.(check bool)
          (Printf.sprintf "seed %d: corrupt names a plausible seq" seed)
          true
          (seq >= 1 && seq <= 46));
    match Wal.open_ ~store ~shard:0 ~segment_bytes:256 () with
    | w, _ -> Wal.close w; Alcotest.failf "seed %d: open_ must refuse too" seed
    | exception Wal.Corrupt _ -> ()
  done

(* A deleted segment is a hole in acked history, not a fresh log. *)
let test_wal_missing_segment () =
  let store, _ = Store.Mem.create () in
  let segs = build_fuzz_wal store in
  store.Store.s_delete (List.nth segs 1);
  match Wal.scan ~store ~shard:0 with
  | _ -> Alcotest.fail "missing segment went unnoticed"
  | exception Wal.Corrupt { reason; _ } ->
      Alcotest.(check bool) "reason mentions the gap" true
        (String.length reason > 0)

(* A CRC-damaged record FOLLOWED by well-formed frames is bitrot in
   acknowledged history, not a tear — loud even in the newest segment.
   Truncation is reserved for damage that runs to EOF (directly, or
   through a crash's zero tail). *)
let test_wal_last_segment_midrot_is_loud () =
  let build () =
    let store, _ = Store.Mem.create () in
    let w, _ = Wal.open_ ~store ~shard:0 () in
    append_run w 1 10;
    Wal.close w;
    let seg =
      List.find
        (fun n -> Filename.check_suffix n ".seg")
        (store.Store.s_list ())
    in
    (store, seg, Bytes.of_string (store.Store.s_read seg))
  in
  let frame_start b n =
    let pos = ref 0 in
    for _ = 1 to n do
      pos := !pos + 4 + Int32.to_int (Bytes.get_int32_be b !pos)
    done;
    !pos
  in
  let flip b i = Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x40)) in
  (* Rot record 3 of 10: seven well-formed frames follow. *)
  let store, seg, b = build () in
  flip b (frame_start b 2 + 6);
  store.Store.s_write seg (Bytes.to_string b);
  (match Wal.scan ~store ~shard:0 with
  | _ -> Alcotest.fail "mid-segment rot was silently truncated"
  | exception Wal.Corrupt { segment; _ } ->
      Alcotest.(check string) "corrupt names the only segment" seg segment);
  (* Same damage in the FINAL record runs to EOF: the torn-tail rule
     still applies and everything acked before it survives. *)
  let store, seg, b = build () in
  flip b (frame_start b 9 + 6);
  store.Store.s_write seg (Bytes.to_string b);
  let records, r = Wal.scan ~store ~shard:0 in
  Alcotest.(check int) "records before the tear survive" 9
    (List.length records);
  Alcotest.(check bool) "final-record damage truncates" true
    (r.Wal.r_truncated_bytes > 0)

(* ------------------------------------------------------------------ *)
(* Snapshots *)

let test_snapshot_roundtrip () =
  let store, _ = Store.Mem.create () in
  Alcotest.(check bool) "no snapshot yet" true
    (Snapshot.load_latest ~store ~shard:2 = None);
  let bindings = [ (1, 10); (2, 20); (3, 30) ] in
  let _ = Snapshot.write ~store ~shard:2 ~seq:5 bindings in
  let _ = Snapshot.write ~store ~shard:2 ~seq:9 [ (1, 11) ] in
  (* Another shard's snapshot must not shadow ours. *)
  let _ = Snapshot.write ~store ~shard:0 ~seq:99 [] in
  (match Snapshot.load_latest ~store ~shard:2 with
  | Some (got, seq, _) ->
      Alcotest.(check int) "latest seq wins" 9 seq;
      Alcotest.(check (list (pair int int))) "bindings" [ (1, 11) ] got
  | None -> Alcotest.fail "snapshot vanished");
  let deleted = Snapshot.delete_older ~store ~shard:2 ~keep_seq:9 in
  Alcotest.(check int) "older snapshot deleted" 1 deleted;
  match Snapshot.load_latest ~store ~shard:2 with
  | Some (_, 9, _) -> ()
  | _ -> Alcotest.fail "kept snapshot must remain loadable"

let test_snapshot_strict_loader () =
  let store, _ = Store.Mem.create () in
  let name = Snapshot.write ~store ~shard:1 ~seq:4 [ (1, 10); (2, 20) ] in
  let data = store.Store.s_read name in
  (* Bit rot. *)
  let b = Bytes.of_string data in
  Bytes.set b (String.length data - 2)
    (Char.chr (Char.code (Bytes.get b (String.length data - 2)) lxor 1));
  store.Store.s_write name (Bytes.to_string b);
  (match Snapshot.load_latest ~store ~shard:1 with
  | _ -> Alcotest.fail "bit-rotted snapshot loaded"
  | exception Snapshot.Corrupt _ -> ());
  (* Truncation: snapshots publish atomically, so a short file is
     damage, never crash residue. *)
  store.Store.s_write name (String.sub data 0 (String.length data - 3));
  match Snapshot.load_latest ~store ~shard:1 with
  | _ -> Alcotest.fail "truncated snapshot loaded"
  | exception Snapshot.Corrupt _ -> ()

(* ------------------------------------------------------------------ *)
(* Primary / follower / failover *)

let hashmap = Workload.Registry.find_structure "hashmap"
let hyaline = Workload.Registry.find_scheme "hyaline"

let mk_cfg ?(shards = 2) ?(clients = 4) () =
  { Shard.default_config with Shard.shards; clients }

let drive_ops svc ~seed ~rounds ~range ops =
  let rng = Prims.Rng.create ~seed in
  for _ = 1 to rounds do
    let key = Prims.Rng.below rng range in
    let req =
      match Prims.Rng.below rng 10 with
      | 0 | 1 | 2 | 3 ->
          Codec.Put { key; value = Prims.Rng.below rng 1000 }
      | 4 | 5 -> Codec.Del key
      | 6 ->
          Codec.Cas
            {
              key;
              expected = Prims.Rng.below rng 1000;
              desired = Prims.Rng.below rng 1000;
            }
      | _ -> Codec.Get key
    in
    let reply = Shard.call svc ~tid:0 req in
    ops := (req, reply) :: !ops
  done

let primary_state p =
  List.concat
    (List.init p.Primary.svc.Shard.nshards (fun shard ->
         Primary.sweep p ~shard))
  |> List.sort compare

let follower_state f =
  List.concat
    (List.init (Follower.nshards f) (fun shard -> Follower.sweep f ~shard))
  |> List.sort compare

let test_primary_recovery_cycle () =
  let store, _ = Store.Mem.create () in
  let ops = ref [] in
  let p, boot = Primary.create ~structure:hashmap ~scheme:hyaline (mk_cfg ()) ~store () in
  Alcotest.(check int) "fresh boot replays nothing" 0
    (Array.fold_left ( + ) 0 boot.Primary.b_replayed);
  drive_ops p.Primary.svc ~seed:11 ~rounds:300 ~range:64 ops;
  (* Snapshot + truncate mid-history: recovery must go snapshot-then-log. *)
  for shard = 0 to 1 do
    ignore (Primary.snapshot_shard p ~shard ())
  done;
  drive_ops p.Primary.svc ~seed:12 ~rounds:300 ~range:64 ops;
  let live = primary_state p in
  Primary.stop p;
  let p2, boot2 = Primary.create ~structure:hashmap ~scheme:hyaline (mk_cfg ()) ~store () in
  Alcotest.(check bool) "bootstrap used a snapshot" true
    (Array.fold_left ( + ) 0 boot2.Primary.b_snap_bindings > 0);
  Alcotest.(check bool) "bootstrap replayed the log tail" true
    (Array.fold_left ( + ) 0 boot2.Primary.b_replayed > 0);
  let recovered = primary_state p2 in
  Primary.stop p2;
  let expected = Chaos.Oracle.replay_state ~ops:(List.rev !ops) in
  Alcotest.(check (list (pair int int))) "live state = oracle" expected live;
  Alcotest.(check (list (pair int int)))
    "recovered state = oracle replay of acked history" expected recovered

let test_torn_commit_acks_nothing () =
  let store, _ = Store.Mem.create () in
  let ops = ref [] in
  let p, _ = Primary.create ~structure:hashmap ~scheme:hyaline (mk_cfg ()) ~store () in
  let svc = p.Primary.svc in
  drive_ops svc ~seed:21 ~rounds:200 ~range:64 ops;
  Primary.arm_torn_commit p ~shard:0;
  (* Un-ackable work for shard 0: its next group commit dies mid-record. *)
  let late_acks = Atomic.make 0 in
  let submitted = ref 0 in
  let k = ref 1_000 in
  while !submitted < 16 do
    if svc.Shard.shard_of_key !k = 0 then begin
      incr submitted;
      svc.Shard.submit ~tid:1
        (Codec.Put { key = !k; value = !k })
        (function
          | Codec.Shed | Codec.Error _ -> ()
          | _ -> Atomic.incr late_acks)
    end;
    incr k
  done;
  let deadline = Unix.gettimeofday () +. 10.0 in
  while svc.Shard.consumer_alive 0 && Unix.gettimeofday () < deadline do
    Domain.cpu_relax ()
  done;
  Alcotest.(check bool) "armed shard died" false (svc.Shard.consumer_alive 0);
  Alcotest.(check int) "nothing from the torn run was acked" 0
    (Atomic.get late_acks);
  Primary.kill p;
  Alcotest.(check bool) "primary reports dead" false (Primary.alive p);
  let p2, boot2 = Primary.create ~structure:hashmap ~scheme:hyaline (mk_cfg ()) ~store () in
  Alcotest.(check bool) "recovery truncated the torn tail" true
    (Array.fold_left
       (fun a (r : Wal.recovery) -> a + r.Wal.r_truncated_bytes)
       0 boot2.Primary.b_recovery
    > 0);
  let recovered = primary_state p2 in
  Primary.stop p2;
  Primary.stop p;
  let expected = Chaos.Oracle.replay_state ~ops:(List.rev !ops) in
  Alcotest.(check (list (pair int int)))
    "recovered = acked history exactly" expected recovered

let test_follower_sync_and_promote () =
  let store, _ = Store.Mem.create () in
  let ops = ref [] in
  let p, _ = Primary.create ~structure:hashmap ~scheme:hyaline (mk_cfg ()) ~store () in
  let svc = p.Primary.svc in
  drive_ops svc ~seed:31 ~rounds:200 ~range:64 ops;
  for shard = 0 to 1 do
    ignore (Primary.snapshot_shard p ~shard ())
  done;
  drive_ops svc ~seed:32 ~rounds:200 ~range:64 ops;
  (* The log was truncated, so a cold follower must bootstrap from the
     shared store — a from-zero pull would be Too_old. *)
  (match Primary.handle p (Codec.Rep_pull { shard = 0; from = 0; max = 10 }) with
  | Some (Codec.Error _) -> ()
  | r ->
      Alcotest.failf "pull into the truncated window answered %s"
        (match r with Some r -> Codec.reply_to_string r | None -> "None"));
  let pull ~shard ~from ~max =
    match Primary.handle p (Codec.Rep_pull { shard; from; max }) with
    | Some r -> r
    | None -> Codec.Error "not a replication request"
  in
  let f, fboot =
    Follower.create ~structure:hashmap ~scheme:hyaline
      (mk_cfg ~clients:2 ()) ~pull ~store ()
  in
  Alcotest.(check bool) "follower bootstrapped from the snapshot" true
    (Array.fold_left ( + ) 0 fboot.Follower.b_snap_bindings > 0);
  ignore (Follower.sync f);
  Alcotest.(check (list (pair int int)))
    "synced follower = primary" (primary_state p) (follower_state f);
  Alcotest.(check (list int)) "lag is zero after sync" [ 0; 0 ]
    (Array.to_list (Follower.lag f));
  (* More acked history the follower does NOT pull, then the crash. *)
  drive_ops svc ~seed:33 ~rounds:150 ~range:64 ops;
  Primary.arm_torn_commit p ~shard:0;
  let k = ref 1_000 in
  let submitted = ref 0 in
  while !submitted < 8 do
    if svc.Shard.shard_of_key !k = 0 then begin
      incr submitted;
      svc.Shard.submit ~tid:1 (Codec.Put { key = !k; value = 1 }) (fun _ -> ())
    end;
    incr k
  done;
  let deadline = Unix.gettimeofday () +. 10.0 in
  while svc.Shard.consumer_alive 0 && Unix.gettimeofday () < deadline do
    Domain.cpu_relax ()
  done;
  Primary.kill p;
  (* Confirmed-death detection, then promotion from the shared store. *)
  let mon =
    Failover.monitor
      ~alive:(fun () -> Primary.alive p)
      ~heartbeat:svc.Shard.heartbeat ~nshards:2 ()
  in
  let polls = ref 0 in
  while (not (Failover.poll mon)) && !polls < 10_000 do
    incr polls;
    Unix.sleepf 0.001
  done;
  Alcotest.(check bool) "death confirmed" true (Failover.confirmed mon);
  let prom = Failover.promote f ~store in
  Alcotest.(check bool) "promotion recovered unpulled records" true
    (Array.fold_left ( + ) 0 prom.Failover.p_caught_up > 0);
  Alcotest.(check bool) "torn tail reported, not an error" true
    (Array.fold_left ( + ) 0 prom.Failover.p_torn_bytes > 0);
  let promoted = follower_state f in
  Primary.stop p;
  Follower.stop f;
  let expected = Chaos.Oracle.replay_state ~ops:(List.rev !ops) in
  Alcotest.(check (list (pair int int)))
    "promoted follower = oracle replay of acked history" expected promoted

(* Every exit path of the kvd chase loop must RETURN so the caller's
   cleanup runs.  The regression: a [`Err] pull used to become
   [failwith], matching neither handler in kvd and skipping the
   report/close/stop sequence entirely. *)
let test_follower_drive_exit_paths () =
  let store, _ = Store.Mem.create () in
  let ops = ref [] in
  let p, _ =
    Primary.create ~structure:hashmap ~scheme:hyaline (mk_cfg ()) ~store ()
  in
  drive_ops p.Primary.svc ~seed:41 ~rounds:100 ~range:64 ops;
  let mode = ref `Ok in
  let pull ~shard ~from ~max =
    match !mode with
    | `Ok -> (
        match Primary.handle p (Codec.Rep_pull { shard; from; max }) with
        | Some r -> r
        | None -> Codec.Error "not a replication request")
    | `Err -> Codec.Error "injected pull failure"
    | `Gone -> raise Service.Conn.Closed
  in
  let f, _ =
    Follower.create ~structure:hashmap ~scheme:hyaline (mk_cfg ~clients:2 ())
      ~pull ~store ()
  in
  (* Happy path: catch up, then the stop flag ends the loop. *)
  let progressed = ref 0 in
  let budget = ref 50 in
  let running () =
    decr budget;
    !budget > 0
  in
  (match
     Follower.drive f ~running ~poll_interval:0.0005
       ~on_progress:(fun () -> incr progressed)
       ()
   with
  | `Stopped -> ()
  | _ -> Alcotest.fail "flagged stop must return `Stopped");
  Alcotest.(check bool) "drive made progress before stopping" true
    (!progressed > 0);
  Alcotest.(check (list (pair int int)))
    "driven follower = primary" (primary_state p) (follower_state f);
  (* A pull-level error is a return value, not an escaping exception. *)
  mode := `Err;
  (match Follower.drive f ~running:(fun () -> true) () with
  | `Pull_error m ->
      Alcotest.(check string) "error text surfaced" "injected pull failure" m
  | _ -> Alcotest.fail "an `Err pull must return `Pull_error");
  (* The primary hanging up is a return value too. *)
  mode := `Gone;
  (match Follower.drive f ~running:(fun () -> true) () with
  | `Primary_gone -> ()
  | _ -> Alcotest.fail "Closed must return `Primary_gone");
  (* The cleanup the old code skipped is reachable after every exit. *)
  Follower.stop f;
  Primary.stop p

let test_rep_opcodes_over_socket () =
  let path =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "replica-test-%d.sock" (Unix.getpid ()))
  in
  let store, _ = Store.Mem.create () in
  let p, _ = Primary.create ~structure:hashmap ~scheme:hyaline (mk_cfg ()) ~store () in
  let server =
    Service.Conn.serve_unix p.Primary.svc ~path
      ~ext:(fun req -> Primary.handle p req)
      ()
  in
  Fun.protect
    ~finally:(fun () ->
      Service.Conn.shutdown server;
      Primary.stop p)
    (fun () ->
      let fd = Service.Conn.connect_unix ~path in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          (match Service.Conn.call_fd fd Codec.Rep_info with
          | Codec.Rep_state committed ->
              Alcotest.(check int) "one seq per shard" 2
                (Array.length committed)
          | r -> Alcotest.failf "Rep_info answered %s" (Codec.reply_to_string r));
          (* A durable put, then pull its shard's stream. *)
          (match Service.Conn.call_fd fd (Codec.Put { key = 7; value = 77 }) with
          | Codec.Created -> ()
          | r -> Alcotest.failf "put answered %s" (Codec.reply_to_string r));
          let shard = p.Primary.svc.Shard.shard_of_key 7 in
          match
            Service.Conn.call_fd fd (Codec.Rep_pull { shard; from = 0; max = 10 })
          with
          | Codec.Rep_batch { last; records } ->
              Alcotest.(check bool) "stream advanced" true (last >= 1);
              Alcotest.(check bool) "the put is in the stream" true
                (List.exists
                   (fun (_, m) -> m = Codec.Set { key = 7; value = 77 })
                   records)
          | r -> Alcotest.failf "Rep_pull answered %s" (Codec.reply_to_string r)))

let test_socket_claim () =
  let path =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "replica-claim-%d.sock" (Unix.getpid ()))
  in
  (* A stale path (here: a plain leftover file, same as a crashed
     daemon's socket inode) is probed and claimed. *)
  let oc = open_out path in
  output_string oc "stale";
  close_out oc;
  let svc = Shard.create ~structure:hashmap ~scheme:hyaline (mk_cfg ()) in
  let server = Service.Conn.serve_unix svc ~path () in
  Fun.protect
    ~finally:(fun () ->
      Service.Conn.shutdown server;
      svc.Shard.stop ())
    (fun () ->
      (* A live incumbent is never clobbered. *)
      match Service.Conn.serve_unix svc ~path () with
      | server2 ->
          Service.Conn.shutdown server2;
          Alcotest.fail "second daemon clobbered a live socket"
      | exception Service.Conn.Addr_in_use p ->
          Alcotest.(check string) "names the path" path p)

(* ------------------------------------------------------------------ *)
(* Dirty sets: the lock-free write-set tracker behind delta snapshots *)

let test_dirty_basics () =
  Alcotest.(check bool) "none is none" true (Dirty.is_none Dirty.none);
  Alcotest.(check bool) "none absorbs adds" true (Dirty.add Dirty.none ~key:3);
  Alcotest.(check int) "none holds nothing" 0 (Dirty.count Dirty.none);
  let d = Dirty.create ~cap:60 in
  Alcotest.(check bool) "a fresh set is live" false (Dirty.is_none d);
  Alcotest.(check int) "cap rounds to a power of two" 64 (Dirty.capacity d);
  Alcotest.(check bool) "add" true (Dirty.add d ~key:7);
  Alcotest.(check bool) "duplicate add" true (Dirty.add d ~key:7);
  Alcotest.(check bool) "second key" true (Dirty.add d ~key:9);
  Alcotest.(check int) "duplicates deduped" 2 (Dirty.count d);
  Alcotest.(check (list int)) "elements" [ 7; 9 ]
    (List.sort compare (Dirty.elements d));
  Alcotest.(check bool) "no overflow yet" false (Dirty.overflowed d)

let test_dirty_seal_handoff () =
  let cell = Atomic.make (Dirty.create ~cap:64) in
  ignore (Dirty.add (Atomic.get cell) ~key:1);
  (* Snapshot start: swap a fresh set in, seal the old one. *)
  let old = Atomic.exchange cell (Dirty.create ~cap:64) in
  Dirty.seal old;
  Alcotest.(check bool) "post-seal add refused" false (Dirty.add old ~key:2);
  (* The insert-then-check order means a refused add may still sit in
     the sealed set — a harmless superset for the delta reader; what
     matters is that every pre-seal add is covered. *)
  Alcotest.(check bool) "pre-seal adds are covered" true
    (List.mem 1 (Dirty.elements old));
  (* The producer-side retry: a refused add re-reads the cell and
     lands in the fresh set — a key is never lost between deltas. *)
  let rec record key =
    if not (Dirty.add (Atomic.get cell) ~key) then record key
  in
  record 2;
  Alcotest.(check (list int)) "retry landed in the fresh set" [ 2 ]
    (List.sort compare (Dirty.elements (Atomic.get cell)))

let test_dirty_overflow () =
  let d = Dirty.create ~cap:16 in
  for k = 1 to 8 do
    ignore (Dirty.add d ~key:k)
  done;
  Alcotest.(check bool) "half occupancy is still fine" false
    (Dirty.overflowed d);
  ignore (Dirty.add d ~key:9);
  Alcotest.(check bool) "past half occupancy poisons" true (Dirty.overflowed d);
  Alcotest.(check bool) "a poisoned set still accepts" true
    (Dirty.add d ~key:100);
  Alcotest.(check bool) "poison is sticky" true (Dirty.overflowed d);
  (* Negative keys (outside the service key space) poison instead of
     corrupting the probe sequence. *)
  let d2 = Dirty.create ~cap:16 in
  ignore (Dirty.add d2 ~key:(-5));
  Alcotest.(check bool) "negative key poisons" true (Dirty.overflowed d2);
  (* Explicit poison: the overflowed-merge-back path. *)
  let d3 = Dirty.create ~cap:16 in
  Dirty.poison d3;
  Alcotest.(check bool) "explicit poison" true (Dirty.overflowed d3)

(* ------------------------------------------------------------------ *)
(* Delta chains: write_delta / load_chain discipline *)

let test_snapshot_delta_chain () =
  let store, _ = Store.Mem.create () in
  let _ = Snapshot.write ~store ~shard:1 ~seq:10 [ (1, 10); (2, 20); (3, 30) ] in
  let _ =
    Snapshot.write_delta ~store ~shard:1 ~from:10 ~seq:14
      [ (2, Some 21); (4, Some 40); (3, None) ]
  in
  let _ =
    Snapshot.write_delta ~store ~shard:1 ~from:14 ~seq:19
      [ (4, None); (5, Some 50) ]
  in
  (* Another shard's chain must not interfere. *)
  let _ = Snapshot.write ~store ~shard:0 ~seq:99 [ (9, 90) ] in
  let c = Snapshot.load_chain ~store ~shard:1 in
  (match c with
  | Some c ->
      Alcotest.(check int) "chain tip" 19 c.Snapshot.c_seq;
      Alcotest.(check int) "base seq" 10 c.Snapshot.c_base_seq;
      Alcotest.(check int) "two links" 2 c.Snapshot.c_deltas;
      Alcotest.(check (list (pair int int)))
        "sets applied, tombstones removed"
        [ (1, 10); (2, 21); (5, 50) ]
        c.Snapshot.c_bindings
  | None -> Alcotest.fail "chain vanished");
  (* load_latest still answers the newest BASE, not the chain tip. *)
  (match Snapshot.load_latest ~store ~shard:1 with
  | Some (_, 10, _) -> ()
  | _ -> Alcotest.fail "load_latest must keep answering the base");
  (* delete_older after a compacting base at the tip drops the whole
     superseded chain. *)
  let _ = Snapshot.write ~store ~shard:1 ~seq:19 [ (1, 10); (2, 21); (5, 50) ] in
  let deleted = Snapshot.delete_older ~store ~shard:1 ~keep_seq:19 in
  Alcotest.(check int) "old base + both deltas deleted" 3 deleted;
  match Snapshot.load_chain ~store ~shard:1 with
  | Some c ->
      Alcotest.(check int) "compacted chain is just the base" 0
        c.Snapshot.c_deltas;
      Alcotest.(check (list (pair int int)))
        "compacted bindings survive"
        [ (1, 10); (2, 21); (5, 50) ]
        c.Snapshot.c_bindings
  | None -> Alcotest.fail "compacted chain vanished"

let test_snapshot_chain_violations () =
  (* A missing middle link is a loud Corrupt, never a silent skip. *)
  let store, _ = Store.Mem.create () in
  let _ = Snapshot.write ~store ~shard:1 ~seq:10 [ (1, 10) ] in
  let d1 = Snapshot.write_delta ~store ~shard:1 ~from:10 ~seq:14 [ (2, Some 2) ] in
  let _ = Snapshot.write_delta ~store ~shard:1 ~from:14 ~seq:19 [ (3, Some 3) ] in
  store.Store.s_delete d1;
  (match Snapshot.load_chain ~store ~shard:1 with
  | _ -> Alcotest.fail "missing delta link went unnoticed"
  | exception Snapshot.Corrupt { reason; _ } ->
      Alcotest.(check bool) "reason names the gap" true
        (String.length reason > 0));
  (* A stamp gap (delta chaining from a seq that is not the tip). *)
  let store, _ = Store.Mem.create () in
  let _ = Snapshot.write ~store ~shard:1 ~seq:10 [ (1, 10) ] in
  let _ = Snapshot.write_delta ~store ~shard:1 ~from:12 ~seq:14 [ (2, Some 2) ] in
  (match Snapshot.load_chain ~store ~shard:1 with
  | _ -> Alcotest.fail "stamp gap went unnoticed"
  | exception Snapshot.Corrupt _ -> ());
  (* Deltas with no base at all: unloadable, loud. *)
  let store, _ = Store.Mem.create () in
  let _ = Snapshot.write_delta ~store ~shard:1 ~from:10 ~seq:14 [ (2, Some 2) ] in
  (match Snapshot.load_chain ~store ~shard:1 with
  | _ -> Alcotest.fail "orphan delta went unnoticed"
  | exception Snapshot.Corrupt _ -> ());
  (* Bit rot inside a delta frame: the strict loader refuses. *)
  let store, _ = Store.Mem.create () in
  let _ = Snapshot.write ~store ~shard:1 ~seq:10 [ (1, 10) ] in
  let d = Snapshot.write_delta ~store ~shard:1 ~from:10 ~seq:14 [ (2, Some 2) ] in
  let data = store.Store.s_read d in
  let b = Bytes.of_string data in
  let i = String.length data - 2 in
  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 1));
  store.Store.s_write d (Bytes.to_string b);
  match Snapshot.load_chain ~store ~shard:1 with
  | _ -> Alcotest.fail "bit-rotted delta loaded"
  | exception Snapshot.Corrupt _ -> ()

let test_snapshot_chain_compaction_residue () =
  (* Crash between publishing a compacting base and deleting the
     superseded chain: the loader must pick the new base and ignore
     every delta at or below its seq. *)
  let store, _ = Store.Mem.create () in
  let _ = Snapshot.write ~store ~shard:1 ~seq:10 [ (1, 10) ] in
  let _ = Snapshot.write_delta ~store ~shard:1 ~from:10 ~seq:14 [ (2, Some 2) ] in
  let _ = Snapshot.write_delta ~store ~shard:1 ~from:14 ~seq:19 [ (3, Some 3) ] in
  (* The compacting base published; the crash skipped delete_older. *)
  let _ = Snapshot.write ~store ~shard:1 ~seq:19 [ (1, 10); (2, 2); (3, 3) ] in
  match Snapshot.load_chain ~store ~shard:1 with
  | Some c ->
      Alcotest.(check int) "new base wins" 19 c.Snapshot.c_base_seq;
      Alcotest.(check int) "stale deltas ignored" 0 c.Snapshot.c_deltas;
      Alcotest.(check (list (pair int int)))
        "bindings from the new base"
        [ (1, 10); (2, 2); (3, 3) ]
        c.Snapshot.c_bindings
  | None -> Alcotest.fail "chain vanished after simulated compaction crash"

(* ------------------------------------------------------------------ *)
(* Primary delta snapshots: publish, chain recovery, fallback *)

let test_primary_delta_snapshot_cycle () =
  let store, _ = Store.Mem.create () in
  let ops = ref [] in
  let p, _ =
    Primary.create ~structure:hashmap ~scheme:hyaline ~delta:true (mk_cfg ())
      ~store ()
  in
  drive_ops p.Primary.svc ~seed:51 ~rounds:300 ~range:64 ops;
  (* First snapshot: no base exists, so even `Delta falls back full. *)
  let f0, _ = Primary.snapshot_shard p ~shard:0 ~mode:`Delta () in
  Alcotest.(check bool) "first snapshot is a base" true
    (String.length f0 >= 4 && String.sub f0 0 4 = "snap");
  drive_ops p.Primary.svc ~seed:52 ~rounds:300 ~range:64 ops;
  (* Second snapshot: a base exists and tracking is on — a delta. *)
  let f1, s1 = Primary.snapshot_shard p ~shard:0 () in
  Alcotest.(check bool) "second snapshot is a delta" true
    (String.length f1 >= 5 && String.sub f1 0 5 = "delta");
  (* Nothing new committed: the tip is returned without a write. *)
  let f1', s1' = Primary.snapshot_shard p ~shard:0 () in
  Alcotest.(check string) "quiescent snapshot reuses the tip" f1 f1';
  Alcotest.(check int) "same stamp" s1 s1';
  drive_ops p.Primary.svc ~seed:53 ~rounds:300 ~range:64 ops;
  let f2, _ = Primary.snapshot_shard p ~shard:1 () in
  Alcotest.(check bool) "other shard chains independently" true
    (String.length f2 >= 4);
  (* `Full forces a compacting base and prunes the chain. *)
  drive_ops p.Primary.svc ~seed:54 ~rounds:100 ~range:64 ops;
  let f3, _ = Primary.snapshot_shard p ~shard:0 ~mode:`Full () in
  Alcotest.(check bool) "`Full publishes a base" true
    (String.sub f3 0 4 = "snap");
  drive_ops p.Primary.svc ~seed:55 ~rounds:200 ~range:64 ops;
  let _ = Primary.snapshot_shard p ~shard:0 () in
  let live = primary_state p in
  Primary.stop p;
  (* Reboot: chain bootstrap (base + deltas) + WAL tail replay must
     reproduce exactly the acked history. *)
  let p2, boot2 =
    Primary.create ~structure:hashmap ~scheme:hyaline ~delta:true (mk_cfg ())
      ~store ()
  in
  Alcotest.(check bool) "bootstrap used the chain" true
    (Array.fold_left ( + ) 0 boot2.Primary.b_snap_bindings > 0);
  let recovered = primary_state p2 in
  Primary.stop p2;
  let expected = Chaos.Oracle.replay_state ~ops:(List.rev !ops) in
  Alcotest.(check (list (pair int int))) "live state = oracle" expected live;
  Alcotest.(check (list (pair int int)))
    "chain-recovered state = oracle" expected recovered

let test_primary_dirty_overflow_falls_back () =
  let store, _ = Store.Mem.create () in
  let p, _ =
    Primary.create ~structure:hashmap ~scheme:hyaline ~delta:true
      ~dirty_cap:16 (mk_cfg ()) ~store ()
  in
  Fun.protect
    ~finally:(fun () -> Primary.stop p)
    (fun () ->
      let ops = ref [] in
      drive_ops p.Primary.svc ~seed:61 ~rounds:50 ~range:64 ops;
      let _ = Primary.snapshot_shard p ~shard:0 ~mode:`Full () in
      (* Overflow the tiny dirty set (cap 16 poisons past 8 keys). *)
      drive_ops p.Primary.svc ~seed:62 ~rounds:300 ~range:64 ops;
      let f, _ = Primary.snapshot_shard p ~shard:0 ~mode:`Delta () in
      Alcotest.(check bool)
        "overflowed tracker falls back to a base" true
        (String.sub f 0 4 = "snap"))

let test_adaptive_dirty_cap_absorbs_spike () =
  (* A write burst past the poison threshold degrades one snapshot to
     a full — and only one: the snapshot doubles the next set's cap
     from the observed overflow, so the same burst rate fits the next
     cycle.  Quiet cycles then decay the cap back down. *)
  let store, _ = Store.Mem.create () in
  let ops = ref [] in
  let p, _ =
    Primary.create ~structure:hashmap ~scheme:hyaline ~delta:true
      ~dirty_cap:16 (mk_cfg ()) ~store ()
  in
  Fun.protect
    ~finally:(fun () -> Primary.stop p)
    (fun () ->
      let cap_gauge () = List.assoc "rep_shard0_dirty_cap" (Primary.gauges p) in
      let put_on shard n =
        let k = ref 0 and sent = ref 0 in
        while !sent < n do
          if p.Primary.svc.Shard.shard_of_key !k = shard then begin
            let req = Codec.Put { key = !k; value = !k + 7000 + n } in
            let reply = Shard.call p.Primary.svc ~tid:0 req in
            ops := (req, reply) :: !ops;
            incr sent
          end;
          incr k
        done
      in
      (* A small base: 3 keys keep the cap at 16 through the full. *)
      put_on 0 3;
      ignore (Primary.snapshot_shard p ~shard:0 ~mode:`Full ());
      Alcotest.(check int) "cap starts at 16" 16 (cap_gauge ());
      (* Spike: 12 distinct keys poison a cap-16 set (threshold 8). *)
      put_on 0 12;
      let f1, _ = Primary.snapshot_shard p ~shard:0 ~mode:`Delta () in
      Alcotest.(check bool) "cycle 1 degraded to a full" true
        (String.sub f1 0 4 = "snap");
      Alcotest.(check int) "cap doubled after the overflow" 32 (cap_gauge ());
      (* The same burst rate no longer poisons: cycle 2 is a delta. *)
      put_on 0 12;
      let f2, _ = Primary.snapshot_shard p ~shard:0 ~mode:`Delta () in
      Alcotest.(check bool) "cycle 2 ships a delta" true
        (String.length f2 >= 5 && String.sub f2 0 5 = "delta");
      (* 12 keys are past a quarter of 32, so cycle 2 doubled again —
         the cap tracks the burst rate with headroom. *)
      Alcotest.(check int) "cap sized with headroom" 64 (cap_gauge ());
      (* Quiet cycles decay the cap back to the floor (1 write each so
         the snapshot actually publishes and re-sizes). *)
      put_on 0 1;
      ignore (Primary.snapshot_shard p ~shard:0 ());
      Alcotest.(check int) "quiet cycle halves the cap" 32 (cap_gauge ());
      put_on 0 1;
      ignore (Primary.snapshot_shard p ~shard:0 ());
      put_on 0 1;
      ignore (Primary.snapshot_shard p ~shard:0 ());
      Alcotest.(check int) "cap clamps at the floor" 16 (cap_gauge ());
      (* The degradation dance never costs correctness. *)
      let live = primary_state p in
      let expected = Chaos.Oracle.replay_state ~ops:(List.rev !ops) in
      Alcotest.(check (list (pair int int))) "state = oracle" expected live)

let test_full_snapshot_failure_keeps_dirty () =
  (* A full snapshot that fails at traversal or publish must not eat
     the swapped-out dirty set: those keys are the only record of what
     the chain is missing, and the next delta must still ship them —
     otherwise chain + WAL replay silently loses the mutations the
     failed full would have covered. *)
  let mem, _ = Store.Mem.create () in
  let fail_writes = ref false in
  let store =
    {
      mem with
      Store.s_write =
        (fun name contents ->
          if !fail_writes then failwith "injected publish failure"
          else mem.Store.s_write name contents);
    }
  in
  let ops = ref [] in
  let p, _ =
    Primary.create ~structure:hashmap ~scheme:hyaline ~delta:true (mk_cfg ())
      ~store ()
  in
  drive_ops p.Primary.svc ~seed:71 ~rounds:200 ~range:64 ops;
  for shard = 0 to 1 do
    ignore (Primary.snapshot_shard p ~shard ~mode:`Full ())
  done;
  (* Mutations the chain does not cover yet... *)
  drive_ops p.Primary.svc ~seed:72 ~rounds:200 ~range:64 ops;
  (* ...must survive a full snapshot that dies at publish. *)
  fail_writes := true;
  for shard = 0 to 1 do
    match Primary.snapshot_shard p ~shard ~mode:`Full () with
    | _ -> Alcotest.fail "injected failure did not surface"
    | exception Failure _ -> ()
  done;
  fail_writes := false;
  drive_ops p.Primary.svc ~seed:73 ~rounds:50 ~range:64 ops;
  (* Tracking was merged back, not poisoned: the next snapshot is a
     delta, and it carries the pre-failure write set. *)
  for shard = 0 to 1 do
    let f, _ = Primary.snapshot_shard p ~shard () in
    Alcotest.(check bool) "post-failure snapshot is a delta" true
      (String.length f >= 5 && String.sub f 0 5 = "delta")
  done;
  Primary.stop p;
  let p2, _ =
    Primary.create ~structure:hashmap ~scheme:hyaline ~delta:true (mk_cfg ())
      ~store ()
  in
  let recovered = primary_state p2 in
  Primary.stop p2;
  let expected = Chaos.Oracle.replay_state ~ops:(List.rev !ops) in
  Alcotest.(check (list (pair int int)))
    "chain after a failed full = acked history" expected recovered

let test_bootstrap_chain_bindings_not_dirty () =
  (* Chain bindings applied at boot are base state: recording them
     would make the first post-boot delta re-ship the whole base — or,
     with a small cap, instantly poison the set and degrade the first
     delta to a full.  Only WAL-tail replay belongs in the next
     delta. *)
  let store, _ = Store.Mem.create () in
  let ops = ref [] in
  let p, _ =
    Primary.create ~structure:hashmap ~scheme:hyaline ~delta:true
      ~dirty_cap:16 (mk_cfg ()) ~store ()
  in
  drive_ops p.Primary.svc ~seed:81 ~rounds:300 ~range:64 ops;
  for shard = 0 to 1 do
    ignore (Primary.snapshot_shard p ~shard ~mode:`Full ())
  done;
  Primary.stop p;
  (* Reboot: more than cap/2 live keys per shard would poison cap-16
     tracking if the chain bindings were recorded. *)
  let p2, boot =
    Primary.create ~structure:hashmap ~scheme:hyaline ~delta:true
      ~dirty_cap:16 (mk_cfg ()) ~store ()
  in
  Alcotest.(check bool) "fixture restored a sizable base" true
    (Array.fold_left min max_int boot.Primary.b_snap_bindings > 8);
  List.iter
    (fun (k, v) ->
      if
        k = "rep_shard0_dirty_keys" || k = "rep_shard1_dirty_keys"
        || k = "rep_shard0_dirty_overflow"
        || k = "rep_shard1_dirty_overflow"
      then Alcotest.(check int) (k ^ " clean after boot") 0 v)
    (Primary.gauges p2);
  (* A few fresh writes per shard -> the next snapshot is a small
     delta, not a full fallback. *)
  let put_on shard n =
    let k = ref 0 and sent = ref 0 in
    while !sent < n do
      if p2.Primary.svc.Shard.shard_of_key !k = shard then begin
        let req = Codec.Put { key = !k; value = !k + 1000 } in
        let reply = Shard.call p2.Primary.svc ~tid:0 req in
        ops := (req, reply) :: !ops;
        incr sent
      end;
      incr k
    done
  in
  put_on 0 3;
  put_on 1 3;
  for shard = 0 to 1 do
    let f, _ = Primary.snapshot_shard p2 ~shard ~mode:`Delta () in
    Alcotest.(check bool) "first post-boot snapshot is a delta" true
      (String.length f >= 5 && String.sub f 0 5 = "delta")
  done;
  let live = primary_state p2 in
  Primary.stop p2;
  let expected = Chaos.Oracle.replay_state ~ops:(List.rev !ops) in
  Alcotest.(check (list (pair int int))) "state = oracle" expected live

let test_boot_replay_small_mailbox () =
  (* Boot replay is windowed (up to 128 in flight) through mailboxes
     that hold 2: most submissions shed and are resubmitted.  A
     resubmission that overtook a later write to the same key would
     leave a stale value, and the history below rewrites each key
     many times — base, delta and log tail all included. *)
  let store, _ = Store.Mem.create () in
  let ops = ref [] in
  let p, _ =
    Primary.create ~structure:hashmap ~scheme:hyaline ~delta:true (mk_cfg ())
      ~store ()
  in
  let svc = p.Primary.svc in
  let value = ref 0 in
  let exec req = ops := (req, Shard.call svc ~tid:0 req) :: !ops in
  (* Runs of Set/Unset over the same keys: every key is written,
     deleted and rewritten; keys 0 mod 3 end a run deleted. *)
  let runs ~keys ~rounds =
    for _ = 1 to rounds do
      for key = 0 to keys - 1 do
        for _ = 1 to 3 do
          incr value;
          exec (Codec.Put { key; value = !value })
        done;
        exec (Codec.Del key);
        if key mod 3 <> 0 then begin
          incr value;
          exec (Codec.Put { key; value = !value })
        end
      done
    done
  in
  runs ~keys:48 ~rounds:2;
  for shard = 0 to 1 do
    ignore (Primary.snapshot_shard p ~shard ~mode:`Full ())
  done;
  runs ~keys:24 ~rounds:2;
  for shard = 0 to 1 do
    let f, _ = Primary.snapshot_shard p ~shard ~mode:`Delta () in
    Alcotest.(check bool) "fixture chain has a delta" true
      (String.length f >= 5 && String.sub f 0 5 = "delta")
  done;
  let at_chain_tip = Chaos.Oracle.replay_state ~ops:(List.rev !ops) in
  let ops_at_tip = List.length !ops in
  runs ~keys:16 ~rounds:6;
  Primary.stop p;
  let history = List.rev !ops in
  let expected = Chaos.Oracle.replay_state ~ops:history in
  let per_shard f l =
    List.init 2 (fun shard ->
        List.length (List.filter (fun x -> svc.Shard.shard_of_key (f x) = shard) l))
  in
  let want_snap = per_shard fst at_chain_tip in
  let want_replayed =
    List.filteri (fun i _ -> i >= ops_at_tip) history
    |> List.filter (fun (req, reply) -> Codec.mutation_of_exec req reply <> None)
    |> per_shard (fun (req, _) -> Codec.key_of_request req)
  in
  Alcotest.(check bool) "fixture has a log tail" true
    (List.fold_left ( + ) 0 want_replayed > 0);
  let cfg = { (mk_cfg ()) with Shard.mailbox_capacity = 2 } in
  let f, fboot =
    Follower.create ~structure:hashmap ~scheme:hyaline cfg
      ~pull:(fun ~shard:_ ~from:_ ~max:_ -> Codec.Error "no primary")
      ~store ()
  in
  let followed = follower_state f in
  Follower.stop f;
  let p2, boot =
    Primary.create ~structure:hashmap ~scheme:hyaline ~delta:true cfg ~store ()
  in
  let recovered = primary_state p2 in
  let sheds = p2.Primary.svc.Shard.sheds () in
  Primary.stop p2;
  Alcotest.(check bool) "boot replay was shed at the mailbox" true (sheds > 0);
  Alcotest.(check (list int)) "primary chain bindings" want_snap
    (Array.to_list boot.Primary.b_snap_bindings);
  Alcotest.(check (list int)) "primary replayed records" want_replayed
    (Array.to_list boot.Primary.b_replayed);
  Alcotest.(check (list (pair int int))) "primary boot = oracle" expected
    recovered;
  Alcotest.(check (list int)) "follower chain bindings" want_snap
    (Array.to_list fboot.Follower.b_snap_bindings);
  Alcotest.(check (list int)) "follower replayed records" want_replayed
    (Array.to_list fboot.Follower.b_replayed);
  Alcotest.(check (list (pair int int))) "follower boot = oracle" expected
    followed

(* ------------------------------------------------------------------ *)
(* Real-disk crash shapes: zero tails and a seeded crash fuzz *)

(* A filesystem can bring a segment back from a crash with its size
   persisted past the last fsync but the new blocks never written: the
   file ends in zeros.  These fixtures append the zeros by hand. *)
let append_zeros dir name n =
  let fd =
    Unix.openfile (Filename.concat dir name) [ Unix.O_WRONLY; Unix.O_APPEND ] 0
  in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () -> ignore (Unix.write fd (Bytes.make n '\000') 0 n))

let test_wal_last_segment_zero_tail () =
  (* A crash leaves the only (last) segment with a zero tail; recovery
     must trim it as a torn tail, keeping every record. *)
  with_tmp_dir @@ fun dir ->
  let store = Store.fs ~dir in
  let w, _ = Wal.open_ ~store ~shard:0 () in
  append_run w 1 20;
  Wal.close w;
  let seg =
    List.find (fun n -> Filename.check_suffix n ".seg") (store.Store.s_list ())
  in
  append_zeros dir seg 4096;
  let store2 = Store.fs ~dir in
  let records, r = Wal.scan ~store:store2 ~shard:0 in
  Alcotest.(check int) "every committed record survives" 20 (List.length records);
  Alcotest.(check int) "the zero tail was recognized as torn" 4096
    r.Wal.r_truncated_bytes;
  (* Recovery via open_ republishes a clean exact-size log. *)
  let w2, r2 = Wal.open_ ~store:store2 ~shard:0 () in
  Alcotest.(check int) "reopen keeps the records" 20 r2.Wal.r_records;
  append_run w2 21 25;
  Wal.close w2;
  let _, r3 = Wal.scan ~store:store2 ~shard:0 in
  Alcotest.(check int) "appendable after recovery" 25 r3.Wal.r_records;
  Alcotest.(check int) "clean rescan" 0 r3.Wal.r_truncated_bytes

let test_wal_rotated_zero_tail () =
  (* A zero tail on a rotated (non-final) segment reads as real
     frames + zeros: the scan skips the zeros without a rewrite, and
     the cross-segment seq continuity check still guards real
     holes. *)
  with_tmp_dir @@ fun dir ->
  (* Build a multi-segment log in Mem, then lay it out on disk with a
     zero tail appended to a non-final segment. *)
  let mem, _ = Store.Mem.create () in
  let w, _ = Wal.open_ ~store:mem ~shard:0 ~segment_bytes:256 () in
  for run = 0 to 8 do
    append_run w ((run * 5) + 1) ((run + 1) * 5)
  done;
  Wal.close w;
  let segs =
    List.filter (fun n -> Filename.check_suffix n ".seg") (mem.Store.s_list ())
  in
  Alcotest.(check bool) "multi-segment fixture" true (List.length segs > 2);
  let store = Store.fs ~dir in
  List.iter (fun name -> store.Store.s_write name (mem.Store.s_read name)) segs;
  append_zeros dir (List.nth segs 1) 300;
  let records, r = Wal.scan ~store ~shard:0 in
  Alcotest.(check int) "all records survive the untrimmed rotation" 45
    (List.length records);
  Alcotest.(check int) "skipped, not rewritten" 0 r.Wal.r_truncated_bytes;
  (* A real hole in acked history is still loud. *)
  store.Store.s_delete (List.nth segs 2);
  match Wal.scan ~store ~shard:0 with
  | _ -> Alcotest.fail "hole went unnoticed"
  | exception Wal.Corrupt _ -> ()

let test_fs_crash_fuzz () =
  (* Seeded end-to-end crash fuzz on the real-disk store: random ops,
     random delta/full snapshots (chain state on disk), a torn group
     commit, a kill, and a reboot — recovered state must equal the
     oracle replay of exactly the acked history, every seed. *)
  for seed = 0 to 3 do
    with_tmp_dir @@ fun dir ->
    let store = Store.fs ~dir in
    let rng = Prims.Rng.create ~seed:(3000 + seed) in
    let ops = ref [] in
    let p, _ =
      Primary.create ~structure:hashmap ~scheme:hyaline ~delta:true
        (mk_cfg ()) ~store ()
    in
    (* Interleave driving with snapshots so the chain grows: base,
       deltas, and sometimes a compacting full. *)
    for round = 0 to 4 do
      drive_ops p.Primary.svc
        ~seed:(4000 + (seed * 16) + round)
        ~rounds:(60 + Prims.Rng.below rng 60)
        ~range:48 ops;
      let shard = Prims.Rng.below rng 2 in
      let mode =
        match Prims.Rng.below rng 4 with 0 -> `Full | _ -> `Auto
      in
      ignore (Primary.snapshot_shard p ~shard ~mode ())
    done;
    drive_ops p.Primary.svc ~seed:(5000 + seed) ~rounds:100 ~range:48 ops;
    (* Torn commit on shard 0, then process death. *)
    Primary.arm_torn_commit p ~shard:0;
    let svc = p.Primary.svc in
    let submitted = ref 0 in
    let k = ref 10_000 in
    while !submitted < 8 do
      if svc.Shard.shard_of_key !k = 0 then begin
        incr submitted;
        svc.Shard.submit ~tid:1 (Codec.Put { key = !k; value = 1 }) (fun _ -> ())
      end;
      incr k
    done;
    let deadline = Unix.gettimeofday () +. 10.0 in
    while svc.Shard.consumer_alive 0 && Unix.gettimeofday () < deadline do
      Domain.cpu_relax ()
    done;
    Primary.kill p;
    (* Reboot mid-chain from the real directory. *)
    let store2 = Store.fs ~dir in
    let p2, _ =
      Primary.create ~structure:hashmap ~scheme:hyaline ~delta:true
        (mk_cfg ()) ~store:store2 ()
    in
    let recovered = primary_state p2 in
    Primary.stop p2;
    Primary.stop p;
    let expected = Chaos.Oracle.replay_state ~ops:(List.rev !ops) in
    Alcotest.(check (list (pair int int)))
      (Printf.sprintf "seed %d: fs recovery = acked history exactly" seed)
      expected recovered
  done

(* A GET answered inline must never see a write whose group commit
   has not returned.  The store's sync blocks on a gate: client A's
   PUT executes and its consumer parks inside [w_sync]; client B, on
   another domain over the same transport, then GETs the key.  While
   the gate is closed B may get nothing, but never the new value (an
   uncommitted read would be lost by a crash right now).  Once the
   gate opens, B's GET answers the value. *)
let gated_store () =
  let mem, _ = Store.Mem.create () in
  let closed = Atomic.make false in
  let entered = Atomic.make false in
  let s_append name =
    let w = mem.Store.s_append name in
    {
      w with
      Store.w_sync =
        (fun () ->
          if Atomic.get closed then begin
            Atomic.set entered true;
            while Atomic.get closed do
              Unix.sleepf 0.0005
            done
          end;
          w.Store.w_sync ());
    }
  in
  ({ mem with Store.s_append }, closed, entered)

let test_inline_get_reads_committed_state transport () =
  let path =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "replica-inline-%s-%d.sock" transport (Unix.getpid ()))
  in
  let store, closed, entered = gated_store () in
  let p, _ =
    Primary.create ~structure:hashmap ~scheme:hyaline
      { (mk_cfg ()) with Shard.zc_readers = 1 }
      ~store ()
  in
  let svc = p.Primary.svc in
  let ext req = Primary.handle p req in
  let connect, stop_server =
    match transport with
    | "shm" ->
        let srv = Service.Shm_conn.serve svc ~path ~ext () in
        ( (fun () ->
            let c = Service.Shm_conn.connect ~path in
            (Service.Shm_conn.call c, fun () -> Service.Shm_conn.close c)),
          fun () -> Service.Shm_conn.shutdown srv )
    | _ ->
        let srv = Service.Conn.serve_unix svc ~path ~ext () in
        ( (fun () ->
            let fd = Service.Conn.connect_unix ~path in
            (Service.Conn.call_fd fd, fun () -> Unix.close fd)),
          fun () -> Service.Conn.shutdown srv )
  in
  let key = 7 and value = 77 in
  let shard = svc.Shard.shard_of_key key in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set closed false;
      stop_server ();
      Primary.stop p)
    (fun () ->
      let call_b, close_b = connect () in
      Alcotest.(check string)
        "absent before the put" "NOT_FOUND"
        (Codec.reply_to_string (call_b (Codec.Get key)));
      Atomic.set closed true;
      let a =
        Domain.spawn (fun () ->
            let call_a, close_a = connect () in
            let r = call_a (Codec.Put { key; value }) in
            close_a ();
            r)
      in
      while not (Atomic.get entered) do
        Unix.sleepf 0.0005
      done;
      let b_reply = Atomic.make None in
      let b =
        Domain.spawn (fun () -> Atomic.set b_reply (Some (call_b (Codec.Get key))))
      in
      (* B is either answered (inline) or its GET is queued behind the
         commit in the shard's mailbox. *)
      let deadline = Unix.gettimeofday () +. 10.0 in
      while
        Atomic.get b_reply = None
        && svc.Shard.shard_depth shard = 0
        && Unix.gettimeofday () < deadline
      do
        Unix.sleepf 0.0005
      done;
      (match Atomic.get b_reply with
      | Some (Codec.Value v) when v = value ->
          Alcotest.fail "GET read a PUT whose commit had not returned"
      | Some r ->
          Alcotest.failf "GET answered %s during the commit"
            (Codec.reply_to_string r)
      | None -> ());
      Alcotest.(check bool)
        "the epoch sent the GET to the mailbox" true
        (Atomic.get svc.Shard.inline_declined > 0);
      Atomic.set closed false;
      Alcotest.(check string)
        "the put acks once committed" "CREATED"
        (Codec.reply_to_string (Domain.join a));
      Domain.join b;
      Alcotest.(check string)
        "the GET answers the committed value" "VALUE 77"
        (Codec.reply_to_string (Option.get (Atomic.get b_reply)));
      let inline0 = Atomic.get svc.Shard.inline_gets in
      Alcotest.(check string)
        "a later GET sees it too" "VALUE 77"
        (Codec.reply_to_string (call_b (Codec.Get key)));
      Alcotest.(check int)
        "and is answered inline" (inline0 + 1)
        (Atomic.get svc.Shard.inline_gets);
      close_b ())

let suites =
  [
    ( "replica codec",
      [
        Alcotest.test_case "crc32 check vector" `Quick test_crc32_vector;
        Alcotest.test_case "crc32 first use races domains" `Quick
          test_crc32_first_use_race;
        Alcotest.test_case "wal record roundtrip" `Quick
          test_wal_record_roundtrip;
        Alcotest.test_case "every bit flip detected" `Quick
          test_wal_record_detects_damage;
        Alcotest.test_case "mutation_of_exec table" `Quick test_mutation_of_exec;
        Alcotest.test_case "snapshot frames roundtrip" `Quick
          test_snap_frames_roundtrip;
        Alcotest.test_case "fold_frames reports torn tails" `Quick
          test_fold_frames_torn_tail;
      ] );
    ( "replica store",
      [
        Alcotest.test_case "mem crash semantics" `Quick test_mem_store_crash;
        Alcotest.test_case "fs append and atomic publish" `Quick test_fs_store;
      ] );
    ( "replica dirty",
      [
        Alcotest.test_case "basics + dedup" `Quick test_dirty_basics;
        Alcotest.test_case "seal handoff + cell retry" `Quick
          test_dirty_seal_handoff;
        Alcotest.test_case "overflow poison is sticky" `Quick
          test_dirty_overflow;
      ] );
    ( "replica wal",
      [
        Alcotest.test_case "group commit + reopen" `Quick test_wal_group_commit;
        Alcotest.test_case "rotation + truncation" `Quick
          test_wal_rotation_and_truncate;
        Alcotest.test_case "torn commit" `Quick test_wal_torn_commit;
        Alcotest.test_case "fuzz: tail damage truncates" `Quick
          test_wal_fuzz_tail_corruption;
        Alcotest.test_case "fuzz: mid-log damage is loud" `Quick
          test_wal_fuzz_midlog_corruption;
        Alcotest.test_case "missing segment is loud" `Quick
          test_wal_missing_segment;
        Alcotest.test_case "last-segment mid-rot is loud" `Quick
          test_wal_last_segment_midrot_is_loud;
        Alcotest.test_case "last-segment zero tail trims" `Quick
          test_wal_last_segment_zero_tail;
        Alcotest.test_case "rotated zero tail skipped, holes loud" `Quick
          test_wal_rotated_zero_tail;
      ] );
    ( "replica snapshot",
      [
        Alcotest.test_case "roundtrip + delete_older" `Quick
          test_snapshot_roundtrip;
        Alcotest.test_case "strict loader" `Quick test_snapshot_strict_loader;
        Alcotest.test_case "delta chain merge + compaction" `Quick
          test_snapshot_delta_chain;
        Alcotest.test_case "chain continuity violations are loud" `Quick
          test_snapshot_chain_violations;
        Alcotest.test_case "compaction-crash residue ignored" `Quick
          test_snapshot_chain_compaction_residue;
      ] );
    ( "replica service",
      [
        Alcotest.test_case "recovery = oracle replay" `Quick
          test_primary_recovery_cycle;
        Alcotest.test_case "torn commit acks nothing" `Quick
          test_torn_commit_acks_nothing;
        Alcotest.test_case "follower sync + promote" `Quick
          test_follower_sync_and_promote;
        Alcotest.test_case "follower drive exit paths" `Quick
          test_follower_drive_exit_paths;
        Alcotest.test_case "rep opcodes over a socket" `Quick
          test_rep_opcodes_over_socket;
        Alcotest.test_case "socket claim: stale vs live" `Quick
          test_socket_claim;
        Alcotest.test_case "delta snapshot cycle = oracle" `Quick
          test_primary_delta_snapshot_cycle;
        Alcotest.test_case "dirty overflow falls back to full" `Quick
          test_primary_dirty_overflow_falls_back;
        Alcotest.test_case "adaptive dirty cap absorbs a spike" `Quick
          test_adaptive_dirty_cap_absorbs_spike;
        Alcotest.test_case "failed full keeps the dirty set" `Quick
          test_full_snapshot_failure_keeps_dirty;
        Alcotest.test_case "boot chain bindings stay clean" `Quick
          test_bootstrap_chain_bindings_not_dirty;
        Alcotest.test_case "fs crash fuzz = acked history" `Quick
          test_fs_crash_fuzz;
        Alcotest.test_case
          "boot replay under a mailbox smaller than the window = oracle" `Quick
          test_boot_replay_small_mailbox;
        Alcotest.test_case "inline GET reads only committed state (shm)"
          `Quick
          (test_inline_get_reads_committed_state "shm");
        Alcotest.test_case "inline GET reads only committed state (unix)"
          `Quick
          (test_inline_get_reads_committed_state "unix");
      ] );
  ]
