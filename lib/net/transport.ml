module Net_codec = Adgc_serial.Net_codec
module Wire = Adgc_serial.Wire

type addr = Unix_sock of string | Tcp of string * int

let pp_addr ppf = function
  | Unix_sock path -> Format.fprintf ppf "unix:%s" path
  | Tcp (host, port) -> Format.fprintf ppf "tcp:%s:%d" host port

let sockaddr = function
  | Unix_sock path -> Unix.ADDR_UNIX path
  | Tcp (host, port) ->
      let ip =
        try Unix.inet_addr_of_string host
        with _ -> (Unix.gethostbyname host).Unix.h_addr_list.(0)
      in
      Unix.ADDR_INET (ip, port)

type conn = {
  sock : Unix.file_descr;
  frames : Frame.decoder;
  backlog : Buffer.t;  (* bytes accepted by [send] but not yet by the kernel *)
  mutable backlog_off : int;
  mutable alive : bool;
  readbuf : Bytes.t;
}

let of_fd sock =
  Unix.set_nonblock sock;
  (try Unix.setsockopt sock Unix.TCP_NODELAY true with Unix.Unix_error _ -> ());
  {
    sock;
    frames = Frame.decoder ();
    backlog = Buffer.create 4096;
    backlog_off = 0;
    alive = true;
    readbuf = Bytes.create 65536;
  }

let fd t = t.sock

let alive t = t.alive

let close t =
  if t.alive then begin
    t.alive <- false;
    try Unix.close t.sock with Unix.Unix_error _ -> ()
  end

let kill t = close t

let compact t =
  if t.backlog_off > 0 && t.backlog_off = Buffer.length t.backlog then begin
    Buffer.clear t.backlog;
    t.backlog_off <- 0
  end
  else if t.backlog_off > 1 lsl 20 then begin
    let rest = Buffer.sub t.backlog t.backlog_off (Buffer.length t.backlog - t.backlog_off) in
    Buffer.clear t.backlog;
    Buffer.add_string t.backlog rest;
    t.backlog_off <- 0
  end

let flush t =
  if t.alive then begin
    let contents = Buffer.contents t.backlog in
    let continue = ref true in
    while !continue && t.backlog_off < String.length contents do
      let len = String.length contents - t.backlog_off in
      match Unix.write_substring t.sock contents t.backlog_off len with
      | 0 -> continue := false
      | n -> t.backlog_off <- t.backlog_off + n
      | exception Unix.Unix_error ((Unix.EWOULDBLOCK | Unix.EAGAIN | Unix.EINTR), _, _) ->
          continue := false
      | exception Unix.Unix_error _ -> kill t; continue := false
    done;
    compact t
  end

let want_write t = t.alive && t.backlog_off < Buffer.length t.backlog

let send t env =
  if t.alive then begin
    let payload = Net_codec.encode_shape Envelope.emit env in
    Buffer.add_string t.backlog (Frame.encode payload);
    flush t
  end

let recv t =
  if not t.alive then []
  else begin
    let continue = ref true in
    while !continue do
      match Unix.read t.sock t.readbuf 0 (Bytes.length t.readbuf) with
      | 0 -> kill t; continue := false
      | n ->
          Frame.feed_sub t.frames t.readbuf 0 n;
          if n < Bytes.length t.readbuf then continue := false
      | exception Unix.Unix_error ((Unix.EWOULDBLOCK | Unix.EAGAIN | Unix.EINTR), _, _) ->
          continue := false
      | exception Unix.Unix_error _ -> kill t; continue := false
    done;
    let out = ref [] in
    (try
       let rec drain () =
         match Frame.next t.frames with
         | None -> ()
         | Some payload ->
             let env = Net_codec.Read.run Envelope.read payload in
             out := env :: !out;
             drain ()
       in
       drain ()
     with Wire.Malformed _ -> kill t);
    List.rev !out
  end

let listen addr =
  let domain = match addr with Unix_sock _ -> Unix.PF_UNIX | Tcp _ -> Unix.PF_INET in
  let sock = Unix.socket domain Unix.SOCK_STREAM 0 in
  (match addr with
  | Unix_sock path -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
  | Tcp _ -> Unix.setsockopt sock Unix.SO_REUSEADDR true);
  Unix.bind sock (sockaddr addr);
  Unix.listen sock 64;
  Unix.set_nonblock sock;
  sock

let accept lsock =
  match Unix.accept lsock with
  | sock, _ -> Some (of_fd sock)
  | exception Unix.Unix_error ((Unix.EWOULDBLOCK | Unix.EAGAIN | Unix.EINTR), _, _) -> None

let dial ?(attempts = 40) ?(delay = 0.05) addr =
  let sa = sockaddr addr in
  let rec go n delay =
    let domain = match addr with Unix_sock _ -> Unix.PF_UNIX | Tcp _ -> Unix.PF_INET in
    let sock = Unix.socket domain Unix.SOCK_STREAM 0 in
    match Unix.connect sock sa with
    | () -> of_fd sock
    | exception Unix.Unix_error (err, _, _) ->
        (try Unix.close sock with Unix.Unix_error _ -> ());
        if n <= 1 then
          Format.kasprintf failwith "dial %a: %s" pp_addr addr (Unix.error_message err)
        else begin
          Unix.sleepf delay;
          go (n - 1) (Float.min 0.5 (delay *. 1.5))
        end
  in
  go attempts delay
