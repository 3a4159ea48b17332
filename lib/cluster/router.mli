(** Client-side cluster routing: hash, dial the owner, chase
    redirects.

    The router holds one connection per node (an {!endpoint}, calls
    serialized and transparently re-dialed after a node reboot) and a
    slot→node table seeded from any member's [Cl_info].  A data call
    hashes its key to a slot, calls the believed owner, and on
    {!Service.Codec.Moved} adopts the redirect and retries — bounded,
    with a small sleep, which rides out the freeze→grant window of a
    live migration (both sides briefly answer [Moved] at each other;
    the grant lands within a few round-trips).  [Shed] retries on the
    same backoff.

    Thread-safe: the proxy serves many connections through one
    router.  Slot-table updates are plain int stores — a racy reader
    at worst takes one extra redirect hop. *)

type endpoint

val endpoint : id:int -> path:string -> endpoint
(** Lazily-dialed unix-socket endpoint for node [id].  Calls
    serialize in arrival order (a closed-loop caller cannot starve
    another caller sharing the endpoint); a connection error closes
    and re-dials once before giving up with an [Error] reply. *)

val endpoint_id : endpoint -> int

val endpoint_call :
  endpoint -> Service.Codec.request -> Service.Codec.reply
(** One raw round-trip to this node, no routing — the migration
    driver's primitive. *)

val endpoint_close : endpoint -> unit

type t

val create :
  ?nslots:int ->
  ?max_retries:int ->
  ?retry_sleep_s:float ->
  endpoints:endpoint list ->
  unit ->
  t
(** [max_retries] (default 64) bounds redirect/shed chasing per call;
    [retry_sleep_s] (default 1 ms) is the backoff between attempts.
    The initial slot table is pulled from the first endpoint that
    answers [Cl_info]; endpoints that are down at creation are used
    lazily.  @raise Invalid_argument on an empty endpoint list. *)

val call : t -> Service.Codec.request -> Service.Codec.reply
(** Route a data request (GET/PUT/DEL/CAS).  Control requests are
    answered with [Error] — they are addressed to specific nodes via
    {!endpoint_call}, not routed. *)

val refresh : t -> unit
(** Re-pull [Cl_info] from every reachable endpoint and adopt the
    highest-version table. *)

val note_owner : t -> slot:int -> node:int -> unit
(** Install one slot mapping (the migration driver's post-cutover
    hint; a stale entry would self-correct through [Moved] anyway). *)

val slot_table : t -> int array
val moved_seen : t -> int
(** Total [Moved] redirects chased — the availability cost of
    migrations, reported in the cluster experiment CSV. *)

val shed_seen : t -> int
val close : t -> unit
