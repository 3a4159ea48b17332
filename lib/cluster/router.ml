(* Client-side routing; see router.mli. *)

module Codec = Service.Codec

type endpoint = {
  ep_id : int;
  ep_path : string;
  ep_lock : Mutex.t;  (* guards the ticket counters *)
  ep_turn : Condition.t;
  mutable ep_next : int;  (* next ticket handed out *)
  mutable ep_serving : int;  (* ticket whose call owns the connection *)
  mutable ep_fd : Unix.file_descr option;
}

let endpoint ~id ~path =
  {
    ep_id = id;
    ep_path = path;
    ep_lock = Mutex.create ();
    ep_turn = Condition.create ();
    ep_next = 0;
    ep_serving = 0;
    ep_fd = None;
  }

let endpoint_id ep = ep.ep_id

let ep_fd ep =
  match ep.ep_fd with
  | Some fd -> fd
  | None ->
      let fd = Service.Conn.connect_unix ~path:ep.ep_path in
      ep.ep_fd <- Some fd;
      fd

let ep_drop ep =
  (match ep.ep_fd with
  | Some fd -> ( try Unix.close fd with Unix.Unix_error _ -> ())
  | None -> ());
  ep.ep_fd <- None

(* One call at a time on the connection, in arrival order.  A plain
   mutex lets a closed-loop caller re-take the lock before a woken
   waiter gets a CPU, which starves whoever shares the endpoint with
   it — a migration driver behind routed load never converged. *)
let with_turn ep f =
  Mutex.lock ep.ep_lock;
  let me = ep.ep_next in
  ep.ep_next <- me + 1;
  while ep.ep_serving <> me do
    Condition.wait ep.ep_turn ep.ep_lock
  done;
  Mutex.unlock ep.ep_lock;
  Fun.protect f ~finally:(fun () ->
      Mutex.lock ep.ep_lock;
      ep.ep_serving <- me + 1;
      Condition.broadcast ep.ep_turn;
      Mutex.unlock ep.ep_lock)

let endpoint_call ep req =
  with_turn ep (fun () ->
      let attempt () = Service.Conn.call_fd (ep_fd ep) req in
      try attempt ()
      with
      | Service.Conn.Closed | Codec.Malformed _
      | Unix.Unix_error _ | Sys_error _
      -> (
        (* The node may have rebooted under us: re-dial once.  A node
           that is actually down surfaces as an [Error] reply, which
           routing treats like any other dead end. *)
        ep_drop ep;
        try attempt ()
        with
        | Service.Conn.Closed | Codec.Malformed _
        | Unix.Unix_error _ | Sys_error _
        ->
          ep_drop ep;
          Codec.Error "endpoint unreachable"))

let endpoint_close ep = with_turn ep (fun () -> ep_drop ep)

(* ------------------------------------------------------------------ *)

type t = {
  r_nslots : int;
  r_slots : int array;  (* believed owner per slot; benign races *)
  r_eps : (int * endpoint) list;
  r_max_retries : int;
  r_retry_sleep : float;
  r_moved : int Atomic.t;
  r_shed : int Atomic.t;
}

let adopt t ~version:_ owners =
  let n = min (Array.length owners) t.r_nslots in
  Array.blit owners 0 t.r_slots 0 n

let pull_table t =
  let best = ref None in
  List.iter
    (fun (_, ep) ->
      match endpoint_call ep Codec.Cl_info with
      | Codec.Cl_state { version; owners; _ } -> (
          match !best with
          | Some (v, _) when v >= version -> ()
          | _ -> best := Some (version, owners))
      | _ -> ())
    t.r_eps;
  match !best with
  | Some (version, owners) -> adopt t ~version owners
  | None -> ()

let create ?(nslots = Ring.default_nslots) ?(max_retries = 64)
    ?(retry_sleep_s = 0.001) ~endpoints () =
  (match endpoints with [] -> invalid_arg "Router.create: no endpoints" | _ -> ());
  let fallback = (List.hd endpoints).ep_id in
  let t =
    {
      r_nslots = nslots;
      r_slots = Array.make nslots fallback;
      r_eps = List.map (fun ep -> (ep.ep_id, ep)) endpoints;
      r_max_retries = max_retries;
      r_retry_sleep = retry_sleep_s;
      r_moved = Atomic.make 0;
      r_shed = Atomic.make 0;
    }
  in
  pull_table t;
  t

let refresh = pull_table
let slot_table t = Array.copy t.r_slots
let moved_seen t = Atomic.get t.r_moved
let shed_seen t = Atomic.get t.r_shed

let note_owner t ~slot ~node =
  if slot >= 0 && slot < t.r_nslots then t.r_slots.(slot) <- node

let key_of = function
  | Codec.Get k | Codec.Del k -> Some k
  | Codec.Put { key; _ } | Codec.Cas { key; _ } -> Some key
  | _ -> None

let call t req =
  match key_of req with
  | None -> Codec.Error "router: not a data request"
  | Some key ->
      let slot = Ring.slot_of_key ~nslots:t.r_nslots key in
      let rec go attempt =
        let node = t.r_slots.(slot) in
        match List.assoc_opt node t.r_eps with
        | None -> Codec.Error (Printf.sprintf "router: no endpoint for node %d" node)
        | Some ep -> (
            match endpoint_call ep req with
            | Codec.Moved { slot = s; node = n } ->
                Atomic.incr t.r_moved;
                if s >= 0 && s < t.r_nslots then t.r_slots.(s) <- n;
                if attempt >= t.r_max_retries then
                  Codec.Error "router: redirect budget exhausted"
                else begin
                  (* The freeze→grant window answers Moved from both
                     sides for a few round-trips; back off briefly. *)
                  Unix.sleepf t.r_retry_sleep;
                  go (attempt + 1)
                end
            | Codec.Shed ->
                Atomic.incr t.r_shed;
                if attempt >= t.r_max_retries then Codec.Shed
                else begin
                  Unix.sleepf t.r_retry_sleep;
                  go (attempt + 1)
                end
            | r -> r)
      in
      go 0

let close t = List.iter (fun (_, ep) -> endpoint_close ep) t.r_eps
