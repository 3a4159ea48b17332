(* The durable-file namespace behind WAL segments and snapshots.

   Everything below the WAL is this record of closures, so the chaos
   suite runs on Mem — a "disk" whose crash semantics are exact and
   deterministic (synced bytes survive, unsynced bytes vanish) — while
   the daemon runs on fs with real fsync.  Same WAL code, same
   recovery code, different physics. *)

type writer = {
  w_append : string -> unit;
  w_sync : unit -> unit;
  w_close : unit -> unit;
}

type t = {
  s_label : string;
  s_list : unit -> string list;
  s_read : string -> string;
  s_source : string -> (bytes -> int -> int -> int) * (unit -> unit);
  s_write : string -> string -> unit;
  s_append : string -> writer;
  s_delete : string -> unit;
}

(* A Codec.source-shaped pull reader over an in-memory string: the
   default [s_source] for backends whose reads are already copies. *)
let string_reader s =
  let pos = ref 0 in
  let read buf off len =
    let n = min len (String.length s - !pos) in
    Bytes.blit_string s !pos buf off n;
    pos := !pos + n;
    n
  in
  (read, fun () -> ())

let rec write_all fd bytes off len =
  if len > 0 then begin
    let n =
      try Unix.write_substring fd bytes off len
      with Unix.Unix_error (Unix.EINTR, _, _) -> 0
    in
    write_all fd bytes (off + n) (len - n)
  end

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    let parent = Filename.dirname dir in
    if parent <> dir then mkdir_p parent;
    try Unix.mkdir dir 0o755
    with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let fs ~dir =
  mkdir_p dir;
  let path name = Filename.concat dir name in
  let s_list () =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f ->
           (not (Filename.check_suffix f ".tmp"))
           && not (Sys.is_directory (path f)))
    |> List.sort compare
  in
  let s_read name =
    In_channel.with_open_bin (path name) In_channel.input_all
  in
  (* Streaming read: an fd-backed pull source, so a frame-at-a-time
     loader never materializes the whole file. *)
  let s_source name =
    let fd =
      try Unix.openfile (path name) [ Unix.O_RDONLY ] 0
      with Unix.Unix_error (Unix.ENOENT, _, _) ->
        raise (Sys_error (path name ^ ": no such file"))
    in
    let read buf off len =
      let rec go () =
        try Unix.read fd buf off len
        with Unix.Unix_error (Unix.EINTR, _, _) -> go ()
      in
      go ()
    in
    (read, fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
  in
  (* Atomic publish: the new contents become durable under a temp
     name, then rename — readers see the old file or the new one,
     never a prefix. *)
  let s_write name contents =
    let tmp = path (name ^ ".tmp") in
    let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () ->
        write_all fd contents 0 (String.length contents);
        Unix.fsync fd);
    Unix.rename tmp (path name)
  in
  let s_append name =
    let fd =
      Unix.openfile (path name) [ Unix.O_WRONLY; Unix.O_APPEND; Unix.O_CREAT ] 0o644
    in
    let closed = ref false in
    {
      w_append = (fun s -> write_all fd s 0 (String.length s));
      w_sync = (fun () -> Unix.fsync fd);
      w_close =
        (fun () ->
          if not !closed then begin
            closed := true;
            try Unix.close fd with Unix.Unix_error _ -> ()
          end);
    }
  in
  let s_delete name =
    try Unix.unlink (path name) with Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  in
  { s_label = "fs:" ^ dir; s_list; s_read; s_source; s_write; s_append; s_delete }

module Mem = struct
  (* One buffer per file plus a synced watermark: w_append grows the
     buffer, w_sync advances the watermark, crash truncates back to
     it.  That IS the contract a journaled filesystem gives an
     appender, minus nondeterminism. *)
  type mfile = { buf : Buffer.t; mutable synced : int }

  type handle = {
    files : (string, mfile) Hashtbl.t;
    mu : Mutex.t;
    mutable n_syncs : int;
  }

  let create ?(label = "mem") () =
    let h = { files = Hashtbl.create 16; mu = Mutex.create (); n_syncs = 0 } in
    let locked f =
      Mutex.lock h.mu;
      Fun.protect ~finally:(fun () -> Mutex.unlock h.mu) f
    in
    let find_or_create name =
      match Hashtbl.find_opt h.files name with
      | Some f -> f
      | None ->
          let f = { buf = Buffer.create 256; synced = 0 } in
          Hashtbl.replace h.files name f;
          f
    in
    let t =
      {
        s_label = label;
        s_list =
          (fun () ->
            locked (fun () ->
                Hashtbl.fold (fun k _ acc -> k :: acc) h.files []
                |> List.filter (fun f -> not (Filename.check_suffix f ".tmp"))
                |> List.sort compare));
        s_read =
          (fun name ->
            locked (fun () ->
                match Hashtbl.find_opt h.files name with
                | Some f -> Buffer.contents f.buf
                | None -> raise (Sys_error (name ^ ": no such file"))));
        s_source =
          (fun name ->
            locked (fun () ->
                match Hashtbl.find_opt h.files name with
                | Some f -> string_reader (Buffer.contents f.buf)
                | None -> raise (Sys_error (name ^ ": no such file"))));
        s_write =
          (fun name contents ->
            locked (fun () ->
                (* Atomic publish: replace the entry wholesale, fully
                   synced.  A writer opened on the old entry keeps its
                   orphaned buffer — same as holding an fd to a
                   renamed-over inode. *)
                let f =
                  {
                    buf = Buffer.create (String.length contents);
                    synced = String.length contents;
                  }
                in
                Buffer.add_string f.buf contents;
                Hashtbl.replace h.files name f));
        s_append =
          (fun name ->
            let f = locked (fun () -> find_or_create name) in
            {
              w_append =
                (fun s -> locked (fun () -> Buffer.add_string f.buf s));
              w_sync =
                (fun () ->
                  locked (fun () ->
                      f.synced <- Buffer.length f.buf;
                      h.n_syncs <- h.n_syncs + 1));
              w_close = (fun () -> ());
            });
        s_delete = (fun name -> locked (fun () -> Hashtbl.remove h.files name));
      }
    in
    (t, h)

  let crash h =
    Mutex.lock h.mu;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock h.mu)
      (fun () ->
        Hashtbl.iter (fun _ f -> Buffer.truncate f.buf f.synced) h.files)

  let with_file h name f =
    Mutex.lock h.mu;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock h.mu)
      (fun () ->
        match Hashtbl.find_opt h.files name with
        | Some m -> f m
        | None -> raise (Sys_error (name ^ ": no such file")))

  let synced_bytes h name = with_file h name (fun f -> f.synced)

  let pending_bytes h name =
    with_file h name (fun f -> Buffer.length f.buf - f.synced)

  let syncs h =
    Mutex.lock h.mu;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock h.mu)
      (fun () -> h.n_syncs)
end
