(* lib/cluster: consistent-hash placement, the cluster-control
   opcodes, and live slot migration over real sockets. *)

module Codec = Service.Codec
module Ring = Cluster.Ring
module Node = Cluster.Node
module Router = Cluster.Router
module Migrate = Cluster.Migrate

(* ------------------------------------------------------------------ *)
(* Ring placement *)

let test_ring_deterministic () =
  let a = Ring.assign ~seed:42 ~nslots:64 ~nodes:[ 0; 1; 2 ] in
  let b = Ring.assign ~seed:42 ~nslots:64 ~nodes:[ 0; 1; 2 ] in
  Alcotest.(check (array int)) "same seed, same table" a b;
  let c = Ring.assign ~seed:43 ~nslots:64 ~nodes:[ 0; 1; 2 ] in
  Alcotest.(check bool) "different seed moves slots" true (Ring.moved a c > 0);
  Alcotest.check_raises "empty nodes rejected"
    (Invalid_argument "Ring.assign: no nodes") (fun () ->
      ignore (Ring.assign ~seed:1 ~nslots:8 ~nodes:[]));
  Alcotest.check_raises "duplicate nodes rejected"
    (Invalid_argument "Ring.assign: duplicate node id") (fun () ->
      ignore (Ring.assign ~seed:1 ~nslots:8 ~nodes:[ 3; 3 ]))

let test_ring_balance () =
  let nodes = [ 0; 1; 2; 3 ] in
  let owners = Ring.assign ~seed:7 ~nslots:256 ~nodes in
  List.iter
    (fun (node, slots) ->
      if slots < 256 / 4 / 3 then
        Alcotest.failf "node %d owns only %d/256 slots" node slots)
    (Ring.spread owners ~nodes);
  (* Every key lands in range, and the slot map is stable. *)
  for k = 0 to 999 do
    let s = Ring.slot_of_key ~nslots:256 k in
    Alcotest.(check bool) "slot in range" true (s >= 0 && s < 256);
    Alcotest.(check int) "slot_of_key is pure" s (Ring.slot_of_key ~nslots:256 k)
  done

let test_ring_minimal_movement () =
  let before = Ring.assign ~seed:9 ~nslots:128 ~nodes:[ 0; 1 ] in
  let after = Ring.assign ~seed:9 ~nslots:128 ~nodes:[ 0; 1; 2 ] in
  (* Consistent hashing: a slot either moved TO the new node or kept
     its owner — nothing reshuffles between the old nodes. *)
  Array.iteri
    (fun s owner ->
      if owner <> 2 then
        Alcotest.(check int)
          (Printf.sprintf "slot %d undisturbed" s)
          before.(s) owner)
    after;
  let gained =
    Array.fold_left (fun a o -> if o = 2 then a + 1 else a) 0 after
  in
  Alcotest.(check bool) "the join takes a real share" true
    (gained > 0 && gained < 128)

(* ------------------------------------------------------------------ *)
(* Cluster opcodes round-trip the wire *)

let roundtrip_request req =
  let b = Buffer.create 64 in
  Codec.encode_request b req;
  let payload = Bytes.sub (Buffer.to_bytes b) 4 (Buffer.length b - 4) in
  Codec.request_of_payload payload

let roundtrip_reply r =
  let b = Buffer.create 64 in
  Codec.encode_reply b r;
  let payload = Bytes.sub (Buffer.to_bytes b) 4 (Buffer.length b - 4) in
  Codec.reply_of_payload payload

let test_codec_cluster_ops () =
  List.iter
    (fun req ->
      Alcotest.(check string)
        (Codec.request_to_string req)
        (Codec.request_to_string req)
        (Codec.request_to_string (roundtrip_request req)))
    [
      Codec.Cl_info;
      Codec.Cl_grant { slot = 7; version = 12; token = 0 };
      Codec.Cl_grant { slot = 7; version = 12; token = (3 lsl 32) lor 9 };
      Codec.Cl_freeze { slot = 63; target = 2 };
      Codec.Cl_release { slot = 0 };
      Codec.Cl_snap { slot = 5; shard = 1; cursor = 400; max = 200; base = 0 };
      Codec.Cl_snap
        { slot = 5; shard = 1; cursor = 0; max = 200; base = (1 lsl 32) lor 4 };
      Codec.Cl_base { slot = 12 };
      Codec.Cl_purge { slot = 12 };
      Codec.Cl_apply
        {
          records =
            [ (1, Codec.Set { key = 4; value = 40 }); (2, Codec.Unset 9) ];
        };
    ];
  List.iter
    (fun r ->
      Alcotest.(check string)
        (Codec.reply_to_string r) (Codec.reply_to_string r)
        (Codec.reply_to_string (roundtrip_reply r)))
    [
      Codec.Moved { slot = 3; node = 1 };
      Codec.Cl_state { version = 4; node = 0; owners = [| 0; 1; 0; 2 |] };
      Codec.Cl_snap_batch
        {
          seq = 17;
          next = -1;
          kvs = [ (1, 10); (2, 20); (3, 30) ];
          tombs = [];
          delta = false;
        };
      Codec.Cl_snap_batch
        { seq = 0; next = 200; kvs = []; tombs = [ 4; 9 ]; delta = true };
      Codec.Cl_token { token = (7 lsl 32) lor 123 };
      Codec.Cl_token { token = 0 };
      Codec.Cl_ok;
    ]

(* ------------------------------------------------------------------ *)
(* Node-level ownership and the persisted cutover record *)

let hashmap = Workload.Registry.find_structure "hashmap"
let hyaline = Workload.Registry.find_scheme "hyaline"

let mk_primary ~store =
  let cfg =
    { Service.Shard.default_config with Service.Shard.shards = 2; clients = 6 }
  in
  fst (Replica.Primary.create ~structure:hashmap ~scheme:hyaline cfg ~store ())

let test_node_ownership_check () =
  let store, _ = Replica.Store.Mem.create () in
  let p = mk_primary ~store in
  Fun.protect
    ~finally:(fun () -> Replica.Primary.stop p)
    (fun () ->
      let nslots = 8 in
      (* Node 1 owns odd slots; evens belong to node 0. *)
      let owners = Array.init nslots (fun s -> s land 1) in
      let node = Node.create ~node_id:1 ~nslots ~owners ~apply_tid:5 p in
      let seen_owned = ref false and seen_moved = ref false in
      for k = 0 to 99 do
        let slot = Ring.slot_of_key ~nslots k in
        match Node.handle node (Codec.Get k) with
        | None ->
            seen_owned := true;
            Alcotest.(check int) "fall-through only when owned" 1 owners.(slot)
        | Some (Codec.Moved { slot = s; node = n }) ->
            seen_moved := true;
            Alcotest.(check int) "redirect names the key's slot" slot s;
            Alcotest.(check int) "redirect names the owner" owners.(slot) n
        | Some r ->
            Alcotest.failf "unexpected reply %s" (Codec.reply_to_string r)
      done;
      Alcotest.(check bool) "both outcomes exercised" true
        (!seen_owned && !seen_moved);
      (* Control ops are served regardless of ownership. *)
      match Node.handle node Codec.Cl_info with
      | Some (Codec.Cl_state { node = 1; owners = o; _ }) ->
          Alcotest.(check (array int)) "table served" owners o
      | _ -> Alcotest.fail "cl_info not served")

let test_node_cutover_survives_reboot () =
  let store, _ = Replica.Store.Mem.create () in
  let nslots = 8 in
  let owners = Array.make nslots 0 in
  let p = mk_primary ~store in
  let node = Node.create ~node_id:1 ~nslots ~owners ~apply_tid:5 p in
  (* The grant persists before its ack — this is the cutover record. *)
  (match Node.handle node (Codec.Cl_grant { slot = 5; version = 3; token = 0 }) with
  | Some Codec.Cl_ok -> ()
  | _ -> Alcotest.fail "grant not acked");
  Alcotest.(check bool) "granted slot owned" true (Node.owns_slot node 5);
  Replica.Primary.stop p;
  (* Reboot from the same store with the {e default} table: the
     persisted one must win, or a crashed node forgets a migration it
     acknowledged. *)
  let p2 = mk_primary ~store in
  Fun.protect
    ~finally:(fun () -> Replica.Primary.stop p2)
    (fun () ->
      let node2 =
        Node.create ~node_id:1 ~nslots ~owners:(Array.make nslots 0)
          ~apply_tid:5 p2
      in
      Alcotest.(check bool) "cutover survives reboot" true
        (Node.owns_slot node2 5);
      Alcotest.(check int) "version survives reboot" 3 (Node.version node2))

let test_admit_filter_gates_execution () =
  (* The execution-time admission filter installed by [Node.create]:
     a request reaching a shard consumer for a slot the node does not
     own answers [Moved] without mutating — even submitted straight
     to the service, past every transport-side check (the parked-
     write cutover hole).  The node's reserved tid is exempt:
     migration ingest legitimately writes slots the node does not own
     yet. *)
  let store, _ = Replica.Store.Mem.create () in
  let p = mk_primary ~store in
  Fun.protect
    ~finally:(fun () -> Replica.Primary.stop p)
    (fun () ->
      let nslots = 8 in
      (* Node 1 owns odd slots; evens belong to node 0. *)
      let owners = Array.init nslots (fun s -> s land 1) in
      let _node = Node.create ~node_id:1 ~nslots ~owners ~apply_tid:5 p in
      let svc = p.Replica.Primary.svc in
      let find_key pred =
        let rec go k =
          if pred (Ring.slot_of_key ~nslots k) then k else go (k + 1)
        in
        go 0
      in
      let foreign = find_key (fun s -> s land 1 = 0) in
      let mine = find_key (fun s -> s land 1 = 1) in
      (match
         Service.Shard.call svc ~tid:0 (Codec.Put { key = foreign; value = 7 })
       with
      | Codec.Moved { node = n; _ } ->
          Alcotest.(check int) "redirect names the owner" 0 n
      | r ->
          Alcotest.failf "foreign-slot write not gated: %s"
            (Codec.reply_to_string r));
      (match Service.Shard.call svc ~tid:0 (Codec.Get foreign) with
      | Codec.Moved _ -> ()
      | r ->
          Alcotest.failf "foreign-slot read not gated: %s"
            (Codec.reply_to_string r));
      (match
         Service.Shard.call svc ~tid:5 (Codec.Put { key = foreign; value = 7 })
       with
      | Codec.Created -> ()
      | r -> Alcotest.failf "ingest tid gated: %s" (Codec.reply_to_string r));
      match Service.Shard.call svc ~tid:0 (Codec.Put { key = mine; value = 9 })
      with
      | Codec.Created -> ()
      | r ->
          Alcotest.failf "owned-slot write blocked: %s"
            (Codec.reply_to_string r))

let test_freeze_quiesce_timeout () =
  (* Freeze must not ack while a shard consumer cannot certify the
     writes already inside the service: a parked consumer holds the
     quiesce barrier, the freeze times out, rolls the flip back, and
     answers [Error]; after unparking the same freeze succeeds. *)
  let store, _ = Replica.Store.Mem.create () in
  let p = mk_primary ~store in
  Fun.protect
    ~finally:(fun () -> Replica.Primary.stop p)
    (fun () ->
      let nslots = 8 in
      let owners = Array.make nslots 1 in
      let node =
        Node.create ~node_id:1 ~nslots ~quiesce_timeout:0.2 ~owners
          ~apply_tid:5 p
      in
      let svc = p.Replica.Primary.svc in
      svc.Service.Shard.set_stalled ~shard:0 true;
      while not (svc.Service.Shard.is_parked 0) do
        Domain.cpu_relax ()
      done;
      (match Node.handle node (Codec.Cl_freeze { slot = 3; target = 0 }) with
      | Some (Codec.Error _) -> ()
      | Some r ->
          Alcotest.failf "freeze under a stalled shard answered %s"
            (Codec.reply_to_string r)
      | None -> Alcotest.fail "freeze fell through");
      Alcotest.(check bool)
        "failed freeze rolled the flip back" true
        (Node.owns_slot node 3);
      svc.Service.Shard.set_stalled ~shard:0 false;
      (match Node.handle node (Codec.Cl_freeze { slot = 3; target = 0 }) with
      | Some Codec.Cl_ok -> ()
      | _ -> Alcotest.fail "freeze after unstall not acked");
      Alcotest.(check bool)
        "acked freeze redirected the slot" false
        (Node.owns_slot node 3))

(* ------------------------------------------------------------------ *)
(* Two real daemons on the evloop backend: routed load, a live slot
   migration under that load, zero lost acks, oracle identity, and a
   post-migration reboot that keeps the new table. *)

let tmp_sock tag =
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "kvc-%s-%d.sock" tag (Unix.getpid ()))

let test_migration_under_load () =
  let nslots = Ring.default_nslots in
  let keyrange = 200 in
  let stores = Array.init 2 (fun _ -> fst (Replica.Store.Mem.create ())) in
  let prims = Array.map (fun store -> mk_primary ~store) stores in
  let owners0 = Array.make nslots 0 in
  let nodes =
    Array.mapi
      (fun id p -> Node.create ~node_id:id ~nslots ~owners:owners0 ~apply_tid:5 p)
      prims
  in
  let paths = Array.init 2 (fun id -> tmp_sock (string_of_int id)) in
  let servers =
    Array.init 2 (fun id ->
        Service.Conn.serve_unix prims.(id).Replica.Primary.svc ~path:paths.(id)
          ~ext:(Node.handle nodes.(id))
          ~ext_defer:Node.deferrable ())
  in
  let eps = Array.init 2 (fun id -> Router.endpoint ~id ~path:paths.(id)) in
  let router = Router.create ~nslots ~endpoints:(Array.to_list eps) () in
  Fun.protect
    ~finally:(fun () ->
      Router.close router;
      Array.iter Service.Conn.shutdown servers;
      Array.iter Replica.Primary.stop prims)
    (fun () ->
      (* Load driver: seeded sequential ops through the router — a
         total order, so the acked history replays as an oracle. *)
      let ops = ref [] in
      let stop = Atomic.make false in
      let errors = Atomic.make 0 in
      let n_acked = Atomic.make 0 in
      let driver =
        Domain.spawn (fun () ->
            let rng = Prims.Rng.create ~seed:1234 in
            let acked = ref [] in
            while not (Atomic.get stop) do
              let key = Prims.Rng.below rng keyrange in
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
              (match Router.call router req with
              | Codec.Error _ | Codec.Shed | Codec.Moved _ ->
                  Atomic.incr errors
              | reply ->
                  acked := (req, reply) :: !acked;
                  Atomic.incr n_acked)
            done;
            !acked)
      in
      (* Let load build, then migrate a slot that the driver's key
         range actually hits, while writes keep flowing. *)
      Unix.sleepf 0.1;
      let slot = Ring.slot_of_key ~nslots 0 in
      let stats =
        match
          Migrate.run ~src:eps.(0) ~dst:eps.(1) ~slot ~nshards:2 ~nslots
            ~router ()
        with
        | Ok s -> s
        | Error e -> Alcotest.failf "migration failed: %s" e
      in
      (* Keep driving post-migration until the history is substantial
         — op-count-based, not wall-clock, so a loaded machine (or a
         cutover fast enough to shrink the migration window) cannot
         starve the assertion below. *)
      let deadline = Unix.gettimeofday () +. 30.0 in
      while Atomic.get n_acked <= 300 && Unix.gettimeofday () < deadline do
        Unix.sleepf 0.01
      done;
      Atomic.set stop true;
      ops := List.rev (Domain.join driver);
      Alcotest.(check int) "no routed call was lost" 0 (Atomic.get errors);
      Alcotest.(check bool) "driver did real work" true (List.length !ops > 300);
      Alcotest.(check bool) "migration shipped catch-up traffic" true
        (stats.Migrate.mg_catchup_rounds >= 1);
      (* Ownership flipped: the source redirects, the target serves. *)
      (match Router.endpoint_call eps.(0) (Codec.Get 0) with
      | Codec.Moved { slot = s; node = 1 } ->
          Alcotest.(check int) "redirect names the migrated slot" slot s
      | r -> Alcotest.failf "source still serves: %s" (Codec.reply_to_string r));
      Alcotest.(check bool) "target owns the slot" true
        (Node.owns_slot nodes.(1) slot);
      (* Oracle identity: replay the acked history sequentially and
         compare every key's value as served by the cluster now. *)
      let expected = Chaos.Oracle.replay_state ~ops:!ops in
      let final =
        List.filter_map
          (fun k ->
            match Router.call router (Codec.Get k) with
            | Codec.Value v -> Some (k, v)
            | Codec.Not_found -> None
            | r -> Alcotest.failf "get %d: %s" k (Codec.reply_to_string r))
          (List.init keyrange Fun.id)
      in
      Alcotest.(check (list (pair int int)))
        "cluster state = oracle replay of acked history" expected final;
      (* Migrate the slot BACK.  The first cutover left node 0 holding
         the handoff token node 1 was granted under, and node 1 has
         tracked its writes in the per-slot dirty set since — so this
         bootstrap must ship a delta chain, not a full copy, and land
         on the same oracle state. *)
      let rec2 = Obs.Recorder.create ~nthreads:1 () in
      let stats2 =
        match
          Migrate.run ~src:eps.(1) ~dst:eps.(0) ~slot ~nshards:2 ~nslots
            ~router ~recorder:rec2 ()
        with
        | Ok s -> s
        | Error e -> Alcotest.failf "back-migration failed: %s" e
      in
      Alcotest.(check bool) "back-migration shipped a delta" true
        stats2.Migrate.mg_delta;
      Alcotest.(check (option int))
        "delta gauge recorded" (Some 1)
        (Obs.Recorder.gauge rec2 ~name:"cluster/migrate/delta");
      Alcotest.(check bool) "shipped pages accounted" true
        (Obs.Recorder.gauge rec2 ~name:"cluster/migrate/snap_pages" <> None);
      Alcotest.(check bool) "slot back home" true (Node.owns_slot nodes.(0) slot);
      Alcotest.(check bool) "old target redirects" false
        (Node.owns_slot nodes.(1) slot);
      let final2 =
        List.filter_map
          (fun k ->
            match Router.call router (Codec.Get k) with
            | Codec.Value v -> Some (k, v)
            | Codec.Not_found -> None
            | r ->
                Alcotest.failf "get %d after back-migration: %s" k
                  (Codec.reply_to_string r))
          (List.init keyrange Fun.id)
      in
      Alcotest.(check (list (pair int int)))
        "delta-shipped state = oracle replay" expected final2;
      (* Reboot the first migration's target: its persisted table must
         remember both cutovers — the slot it was granted and then
         gave back. *)
      Service.Conn.shutdown servers.(1);
      Replica.Primary.stop prims.(1);
      let p1' = mk_primary ~store:stores.(1) in
      Fun.protect
        ~finally:(fun () -> Replica.Primary.stop p1')
        (fun () ->
          let n1' =
            Node.create ~node_id:1 ~nslots ~owners:(Array.make nslots 0)
              ~apply_tid:5 p1'
          in
          Alcotest.(check bool) "the back-cutover survives reboot" false
            (Node.owns_slot n1' slot);
          (* The data it acked is still recoverable from its own WAL:
             the stale copy keeps the slot's bindings as of its
             freeze. *)
          let recovered =
            List.concat
              (List.init 2 (fun shard -> Replica.Primary.sweep p1' ~shard))
          in
          let expected_slot =
            List.filter (fun (k, _) -> Ring.slot_of_key ~nslots k = slot) expected
          in
          List.iter
            (fun (k, v) ->
              match List.assoc_opt k recovered with
              | Some v' when v' = v -> ()
              | Some v' -> Alcotest.failf "key %d: %d <> %d" k v' v
              | None -> Alcotest.failf "key %d missing after reboot" k)
            expected_slot))

(* Calls sharing a router endpoint are served in arrival order.  A
   hammer calls in a closed loop; a second caller joins once the
   hammer is running, and each of its calls must be served after at
   most a few of the hammer's.  A barging mutex hands the connection straight back
   to the hammer on every release, which is how a closed-loop client
   starved a migration sharing its endpoints; the hammer's call cap
   keeps such a regression a failure rather than a hang. *)
let test_endpoint_fifo () =
  let store, _ = Replica.Store.Mem.create () in
  let p = mk_primary ~store in
  let svc = p.Replica.Primary.svc in
  let path = tmp_sock "fifo" in
  let srv = Service.Conn.serve_unix svc ~path () in
  let ep = Router.endpoint ~id:0 ~path in
  Fun.protect
    ~finally:(fun () ->
      Router.endpoint_close ep;
      Service.Conn.shutdown srv;
      Replica.Primary.stop p)
  @@ fun () ->
  let cap = 20_000 in
  let hammered = Atomic.make 0 and served = Atomic.make false in
  let hammer =
    Domain.spawn (fun () ->
        while (not (Atomic.get served)) && Atomic.get hammered < cap do
          ignore (Router.endpoint_call ep (Codec.Get 0));
          Atomic.incr hammered
        done)
  in
  let await_hammer_past n =
    while Atomic.get hammered <= n && n < cap do
      Domain.cpu_relax ()
    done
  in
  (* A barging lock lets the second caller through by luck now and
     then; eight rounds, each joining a hammer that is running again,
     make that luck vanishingly rare. *)
  let overtaken =
    List.init 8 (fun _ ->
        let before = Atomic.get hammered in
        await_hammer_past before;
        let before = Atomic.get hammered in
        ignore (Router.endpoint_call ep (Codec.Get 1));
        Atomic.get hammered - before)
  in
  Atomic.set served true;
  Domain.join hammer;
  let worst = List.fold_left max 0 overtaken in
  if worst > 64 then
    Alcotest.failf "hammer completed %d calls while the second caller waited" worst

let suites =
  [
    ( "cluster.ring",
      [
        Alcotest.test_case "seeded determinism" `Quick test_ring_deterministic;
        Alcotest.test_case "virtual-node balance" `Quick test_ring_balance;
        Alcotest.test_case "minimal movement on join" `Quick
          test_ring_minimal_movement;
      ] );
    ( "cluster.codec",
      [ Alcotest.test_case "control opcodes round-trip" `Quick test_codec_cluster_ops ] );
    ( "cluster.node",
      [
        Alcotest.test_case "ownership check and redirect" `Quick
          test_node_ownership_check;
        Alcotest.test_case "cutover record survives reboot" `Quick
          test_node_cutover_survives_reboot;
        Alcotest.test_case "admission filter gates execution" `Quick
          test_admit_filter_gates_execution;
        Alcotest.test_case "freeze quiesce times out on a stalled shard"
          `Quick test_freeze_quiesce_timeout;
      ] );
    ( "cluster.migrate",
      [
        Alcotest.test_case "live migration under routed load" `Quick
          test_migration_under_load;
        Alcotest.test_case "endpoint serves callers in arrival order" `Quick
          test_endpoint_fifo;
      ] );
  ]
