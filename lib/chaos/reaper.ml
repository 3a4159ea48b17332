(* Crash detection and recovery.

   The reaper watches each shard's heartbeat gauge (bumped once per
   consumer loop iteration, frozen by a crash).  A frozen heartbeat
   alone is NOT enough to act on: a stalled consumer parked inside its
   bracket also freezes, so does an idle consumer parked on its empty
   mailbox, and force-exiting a live consumer's bracket would corrupt
   the control plane.  So a recovery fires only after
   [threshold] consecutive polls in which the heartbeat is frozen AND
   the domain is confirmed dead (joinable) — the confirmation is what
   makes a destructive force-leave safe, and counting polls from the
   confirmed death is what makes the detection step deterministic. *)

type t = {
  svc : Service.Shard.t;
  threshold : int;
  last_hb : int array;
  polls_dead : int array;
}

let create ~svc ~threshold =
  if threshold <= 0 then invalid_arg "Reaper.create: threshold <= 0";
  let n = svc.Service.Shard.nshards in
  {
    svc;
    threshold;
    last_hb = Array.init n (fun i -> svc.Service.Shard.heartbeat i);
    polls_dead = Array.make n 0;
  }

(* One detection poll; returns the shards whose death was confirmed on
   this poll (recover them now, or never hear about them again until
   their counter refills). *)
let poll t =
  let confirmed = ref [] in
  for i = 0 to t.svc.Service.Shard.nshards - 1 do
    let hb = t.svc.Service.Shard.heartbeat i in
    let frozen = hb = t.last_hb.(i) in
    t.last_hb.(i) <- hb;
    if t.svc.Service.Shard.consumer_alive i then t.polls_dead.(i) <- 0
    else begin
      t.polls_dead.(i) <- t.polls_dead.(i) + 1;
      if t.polls_dead.(i) >= t.threshold && frozen then begin
        confirmed := i :: !confirmed;
        t.polls_dead.(i) <- 0
      end
    end
  done;
  List.rev !confirmed

let recover t ~shard =
  t.svc.Service.Shard.recover ~shard;
  t.polls_dead.(shard) <- 0;
  t.last_hb.(shard) <- t.svc.Service.Shard.heartbeat shard
