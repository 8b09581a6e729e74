(** Simulated message-passing network.

    Matches the paper's system model (§4): asynchronous, but reliable and
    FIFO per sender–receiver pair.  Delivery delay is the one-way latency
    between the two nodes' regions ({!Latency}) plus a small deterministic
    jitter; same-region messages still pay a base propagation cost.
    Crashed nodes silently drop inbound and outbound messages.

    Allocation: with no observer attached and no fault configured, a
    {!send} plus its delivery allocates only the engine event and the
    delivery closure.  Per-pair FIFO clocks are an [int array] per
    receiver (grown when a new sender appears); the link-cut and
    per-link loss tables are looked up only while they hold entries;
    observer events are built only when an observer is attached. *)

type 'm t
(** A network carrying messages of type ['m]. *)

type node = int
(** Dense node identifiers, assigned by {!add_node} starting at 0. *)

val create :
  Sim.Engine.t -> Sim.Rng.t -> setup:Latency.setup ->
  ?base_delay_us:int -> ?jitter_us:int -> unit -> 'm t
(** [base_delay_us] (default 60) is added to every message — NIC, kernel
    and serialisation cost.  Jitter is uniform in [\[0, jitter_us\]]
    (default 20). *)

val add_node : 'm t -> region:Latency.region -> node
(** Register a node placed in [region].  Handlers start unset; messages
    to a handler-less node are dropped (counted). *)

val set_handler : 'm t -> node -> (src:node -> 'm -> unit) -> unit

val region_of : 'm t -> node -> Latency.region

val node_count : 'm t -> int

val send : 'm t -> src:node -> dst:node -> 'm -> unit
(** Enqueue delivery of a message.  No-op if either endpoint is crashed.
    Local sends ([src = dst]) still pay [base_delay_us].  Draws from the
    network's RNG only for jitter, extra delay and loss, without
    allocating. *)

(** {2 Message provenance (critical-path profiler)}

    Each delivery records its send/receive virtual timestamps plus the
    {!path} — transit, CPU-queue and CPU-service microseconds the
    message's causal chain accumulated upstream, as declared by the
    sender via {!set_send_path}.  Everything here is observational: no
    randomness is drawn and no scheduling changes, so instrumented and
    uninstrumented runs are bit-identical.

    The profiler is the only reader, so the replicas and clients stamp
    and read provenance only when their [Obs.Profile.t] is enabled;
    otherwise every delivery carries {!no_path}. *)

type path = { p_transit_us : int; p_queue_us : int; p_service_us : int }

val no_path : path

type delivery_info = { di_send_us : int; di_recv_us : int; di_path : path }

val set_send_path :
  'm t -> transit_us:int -> queue_us:int -> service_us:int -> unit
(** Declare the upstream path cost attached to every subsequent {!send}
    until {!clear_send_path}.  Instrumented replica service wrappers set
    this around message handling so replies carry their request's
    transit plus the handler's queueing and service time.  Allocates the
    path record; callers do so only under an enabled profiler. *)

val clear_send_path : 'm t -> unit

val current_delivery : 'm t -> delivery_info option
(** The delivery being handled right now — valid only during a handler
    invocation ([None] otherwise, e.g. inside timer callbacks or CPU
    jobs that run after the handler returned).  The delivery context is
    kept in plain fields; the result is built (allocated) only by this
    call, which callers make only under an enabled profiler. *)

(** {2 Traffic observer (flight recorder)}

    A read-only tap on message traffic: sends (including drops at send
    time) and handler deliveries.  Observers draw no randomness and
    cannot touch the message, so attaching one leaves a seeded run
    byte-identical. *)

type 'm net_event =
  | Sent of { ne_ts : int; ne_src : node; ne_dst : node; ne_msg : 'm;
              ne_dropped : bool }
  | Delivered of { ne_ts : int; ne_src : node; ne_dst : node; ne_msg : 'm;
                   ne_send_us : int  (** virtual µs the message was sent *) }

val set_observer : 'm t -> ('m net_event -> unit) -> unit

val crash : 'm t -> node -> unit
(** Crash-stop [node]: all of its queued and future messages vanish. *)

val recover : 'm t -> node -> unit
(** Clear the crashed bit (messages dropped while down stay lost). *)

val is_crashed : 'm t -> node -> bool

val cut_link : 'm t -> src:node -> dst:node -> unit
(** Sever one direction of a link: messages from [src] to [dst] are
    silently dropped (network partition injection).  In-flight messages
    still arrive — a cut models loss at send time. *)

val heal_link : 'm t -> src:node -> dst:node -> unit

val partition : 'm t -> node list -> node list -> unit
(** Cut every link (both directions) between the two groups.  Idempotent:
    repeating a cut is a no-op (cut links form a set, not a count). *)

val heal_all : 'm t -> unit
(** Remove all link cuts, including named group cuts (crashed nodes stay
    crashed). *)

(** {2 Named partition groups (datacenter-granularity faults)}

    A named cut isolates a node group — typically every replica and
    client of one datacenter/region — from the rest of the network, and
    remembers exactly which directed links {e it} severed: links that
    were already cut (by another overlapping group or by {!cut_link})
    are left alone, so healing the name restores exactly the pre-cut
    connectivity no matter how cuts were layered.  Like {!cut_link},
    group cuts drop messages at send time, so messages already in flight
    across the boundary still arrive. *)

val cut_group :
  'm t -> name:string -> group:node list ->
  ?dir:[ `Both | `In | `Out ] -> unit -> unit
(** Sever links between [group] and every other node.  [dir] (default
    [`Both]) selects which directions to cut relative to the group:
    [`Out] drops only messages leaving the group, [`In] only messages
    entering it — asymmetric cuts model one-way reachability failures.
    Idempotent: if [name] is already active the call is a no-op (heal it
    first to re-cut with a different group or direction). *)

val heal_group : 'm t -> name:string -> unit
(** Restore exactly the links {!cut_group} [name] severed; no-op if
    [name] is not active. *)

val partition_active : 'm t -> name:string -> bool

val set_loss_rate : 'm t -> float -> unit
(** Probabilistic fault injection: every message is independently lost
    with this probability (counted in {!messages_dropped}).  Sampling
    uses the network's own RNG, so a seeded run replays bit-identically.
    [0.] (the default) disables loss and draws nothing from the RNG.
    Raises [Invalid_argument] unless [0 <= p < 1]. *)

val set_link_loss : 'm t -> src:node -> dst:node -> float -> unit
(** Per-link loss probability override; takes precedence over the global
    {!set_loss_rate} on that directed link.  [0.] removes the
    override. *)

val set_extra_delay : 'm t -> max_us:int -> unit
(** Add uniform extra delay in [\[0, max_us\]] to every subsequent
    delivery (slow-network injection).  Per-pair FIFO is preserved.
    [0] (the default) disables the knob and draws nothing from the
    RNG. *)

val clear_faults : 'm t -> unit
(** Reset loss rates, extra delay and all link cuts (named groups
    included).  Crashed nodes stay crashed ({!recover} them
    explicitly). *)

val messages_sent : 'm t -> int

val messages_delivered : 'm t -> int

val messages_dropped : 'm t -> int
