(* Confirmed-death failover, mirroring Chaos.Reaper's discipline: no
   promotion on a single stale observation — the liveness flag must be
   down AND every shard heartbeat frozen across [threshold]
   consecutive polls.  Frozen heartbeats alone prove nothing: an idle
   consumer parks on its empty mailbox and stops bumping its own.  Promotion then catches the follower up from
   the shared store, so acked-but-not-yet-replicated records are
   recovered rather than lost. *)

type monitor = {
  m_alive : unit -> bool;
  m_heartbeat : int -> int;
  nshards : int;
  last : int array;
  frozen : int array;
  threshold : int;
  mutable n_polls : int;
  mutable confirmed_at_ : int option;
}

let monitor ~alive ~heartbeat ~nshards ?(threshold = 3) () =
  if threshold < 1 then invalid_arg "Failover.monitor: threshold < 1";
  {
    m_alive = alive;
    m_heartbeat = heartbeat;
    nshards;
    last = Array.make nshards min_int;
    frozen = Array.make nshards 0;
    threshold;
    n_polls = 0;
    confirmed_at_ = None;
  }

let poll m =
  m.n_polls <- m.n_polls + 1;
  let all_frozen = ref true in
  for i = 0 to m.nshards - 1 do
    let hb = m.m_heartbeat i in
    if hb = m.last.(i) then m.frozen.(i) <- m.frozen.(i) + 1
    else begin
      m.last.(i) <- hb;
      m.frozen.(i) <- 0
    end;
    if m.frozen.(i) < m.threshold then all_frozen := false
  done;
  let dead = (not (m.m_alive ())) && !all_frozen in
  if dead && m.confirmed_at_ = None then m.confirmed_at_ <- Some m.n_polls;
  dead

let confirmed m = m.confirmed_at_ <> None
let polls m = m.n_polls
let confirmed_at m = m.confirmed_at_

type promotion = {
  p_caught_up : int array;
  p_torn_bytes : int array;
  p_applied : int array;
}

let promote follower ~store =
  let n = Follower.nshards follower in
  let caught = Array.make n 0 in
  let torn = Array.make n 0 in
  for shard = 0 to n - 1 do
    let records, r = Wal.scan ~store ~shard in
    torn.(shard) <- r.Wal.r_truncated_bytes;
    caught.(shard) <- Follower.apply_catchup follower ~shard records
  done;
  { p_caught_up = caught; p_torn_bytes = torn; p_applied = Follower.applied follower }
