(** Closed-loop load generator for the daemon (the bench's
    [--serve-load] section and the CI serve smoke job).

    One client thread issues requests back-to-back over loopback — one
    connection per request, like every client of this server — and
    records per-request wall-clock latency. Four phases:

    - [health]: [GET /health] — protocol floor (no solver work);
    - [solve-cold]: [POST /solve] with H1, every request a {e distinct}
      platform fingerprint, so each pays the engine build (H1 reads no
      candidate set, so none is built);
    - [solve-warm]: [POST /solve] cycling a handful of platforms that
      fit both the serve cache and [Cost.get]'s per-domain LRU — every
      request after the first lap is a warm hit;
    - [simulate]: [POST /simulate] — DES work on a warm instance.

    The cold/warm pair is the cache's measurement: the ratio of their
    mean latencies is what a cache miss costs an H1 solve
    (EXPERIMENTS.md quotes a measured run). Timings are
    wall-clock and therefore {e not} part of the determinism contract —
    the CSV is a bench artefact, excluded from the byte-identity gates,
    exactly like the Bechamel timings. *)

type phase = {
  label : string;
  requests : int;  (** completed (status 200) requests *)
  errors : int;  (** non-200 responses or transport failures *)
  reqs_per_s : float;
  mean_us : float;
  p50_us : float;
  p99_us : float;
}

val run :
  ?requests_per_phase:int -> ?stages:int -> port:int -> unit -> phase list
(** Run the four phases, in the order above, against a server already
    listening on [port]. [requests_per_phase] defaults to 200;
    [stages] (default 24) sizes the solve instances. *)

val to_csv : phase list -> string list
(** [phase,requests,errors,reqs_per_s,mean_us,p50_us,p99_us] rows with a
    header — the bench writes this as [results/serve-load.csv]. *)

val render : phase list -> string
(** Aligned human-readable table for the bench's stdout. *)
