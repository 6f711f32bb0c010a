(** Graph algorithms over circuits.

    Everything here treats the circuit either as the directed DAG of
    its nodes, or — for the separation metric of the paper — as the
    corresponding undirected graph. *)

(** {1 Undirected separation (paper §3.3)} *)

type undirected
(** Adjacency of the undirected version of the circuit graph over
    {e gate indices} (primary inputs are excluded: the paper's
    separation measures routing between gates of a module).  Stored in
    CSR form — two flat int arrays — so a million-gate graph costs two
    arrays, not a million boxed neighbour lists. *)

val undirected_of_circuit : Circuit.t -> undirected
(** Built in one pass over the gates into one array sized for twice
    the gate-to-gate fanin edges (input edges excluded) and never
    copied: deduplication leaves slack at its end, which no accessor
    reads.  A gate's segment is its gate fanins, sorted and
    deduplicated by insertion, followed by its gate fanouts, which have
    larger ids and come ascending from the circuit's fanout CSR
    ({!Circuit.Csr.fanout_targets}), so only adjacent repeats are
    dropped.  The result is correct only for circuits whose fanout
    segments are ascending and whose fanins precede the gate — what
    every constructor establishes and {!Circuit.validate} checks. *)

val num_gates : undirected -> int

val neighbours : undirected -> int -> int array
(** A fresh array of the gate's neighbours, sorted ascending, no
    duplicates. *)

val iter_neighbours : undirected -> int -> (int -> unit) -> unit
(** Allocation-free iteration over a gate's undirected neighbours. *)

val exists_neighbour : undirected -> int -> (int -> bool) -> bool

(** {2 Reusable truncated BFS}

    Separation queries from a source are truncated BFS traversals.
    The workspace below makes each traversal O(visited): visited marks
    are epoch stamps (starting a traversal clears nothing), so a
    traversal touches only the BFS horizon instead of every gate.
    One workspace per owner — never share across concurrent users. *)

type bfs
(** A reusable single-source BFS workspace sized for one graph. *)

val make_bfs : undirected -> bfs

val bfs_from : undirected -> bfs -> cutoff:int -> int -> unit
(** Run a truncated BFS from a source gate, overwriting the
    workspace's previous traversal.  Nodes are expanded only while
    their separation from the source is below [cutoff].  Raises
    [Invalid_argument] if the workspace was sized for a different
    graph. *)

val bfs_separation : bfs -> cutoff:int -> int -> int
(** Separation from the last traversal's source to a gate: the
    paper's [S(g_i,g_j)] — intermediate-node count on a shortest
    undirected path, 0 for the source itself and for adjacent gates,
    the forced value [cutoff] beyond the horizon.  Every gate {e not}
    in the visited set is at [cutoff]. *)

val bfs_levels :
  undirected -> bfs -> cutoff:int -> int -> (int array -> int -> int -> int -> unit) -> unit
(** [bfs_levels u b ~cutoff source f] runs the truncated BFS of
    {!bfs_from} level by level.  After each level it calls
    [f queue first stop d]: [queue.(first) .. queue.(stop - 1)] are
    the gates at BFS distance [d >= 1] from the source, in discovery
    order (the separation is [d - 1]), the distance {!bfs_from} would
    find.  [queue] is the workspace's own array, borrowed: read it
    only during the call, never write it.  The traversal writes only
    the visited stamps and the queue, so it leaves none behind: after
    it {!bfs_separation} reads [cutoff] for every gate.  Raises
    [Invalid_argument] if the workspace was sized for a different
    graph. *)

(** {2 Multi-source truncated BFS}

    Up to {!multi_width} truncated traversals in one pass, one source
    per bit of a two-word mask (Then et al., "The More the Merrier",
    VLDB 2014).  Each gate keeps the mask of the sources that have
    reached it; a level ORs each frontier gate's new bits over its
    neighbours, so sources with overlapping balls share the work and
    a pass costs O(union of the balls).  The workspace clears only
    the gates the previous pass touched.  One workspace per owner, as
    for {!bfs}. *)

val multi_width : int
(** Sources per pass: the bits of two native ints (126 on 64-bit
    platforms).  Source [i] owns bit [i] of the low word for
    [i < Sys.int_size], bit [i - Sys.int_size] of the high word
    otherwise. *)

type multi_bfs
(** A reusable multi-source BFS workspace sized for one graph: nine
    words per gate — the seen, frontier and next masks at two
    interleaved words each, plus two level lists and the touched
    list. *)

val make_multi_bfs : undirected -> multi_bfs

val multi_bfs_from :
  undirected ->
  multi_bfs ->
  cutoff:int ->
  int array ->
  pos:int ->
  len:int ->
  (int -> int -> int -> int -> unit) ->
  unit
(** [multi_bfs_from u b ~cutoff sources ~pos ~len f] runs the
    truncated BFS of {!bfs_from} from each of [sources.(pos) ..
    sources.(pos + len - 1)] at once; source [pos + i] owns bit [i]
    of the two-word mask (see {!multi_width}).  Every time a gate is
    reached by sources that had not reached it before,
    [f gate distance lo hi] is called with the BFS distance (0 for
    the sources themselves) and the mask of those sources, low word
    then high word — so each (source, gate) pair within the horizon
    is reported exactly once, at the distance {!bfs_from} would find,
    and the separation is [distance - 1] for [distance >= 1].  Gates
    are reported level by level.  Duplicate sources share a gate and
    are reported together at distance 0.  Raises [Invalid_argument]
    if the workspace was sized for a different graph, or the range is
    out of bounds or wider than {!multi_width}. *)

val multi_bfs_sweep :
  undirected ->
  multi_bfs ->
  cutoff:int ->
  pass:(int -> int -> unit) ->
  (int -> int -> int -> int -> unit) ->
  unit
(** [multi_bfs_sweep u b ~cutoff ~pass f] runs {!multi_bfs_from} from
    every gate: the sources are the gate ids in ascending order, in
    consecutive passes of {!multi_width} ids.  Before each pass,
    [pass base len] names its sources [base .. base + len - 1]; source
    [base + i] owns bit [i] of the mask [lo], [hi] that [f] then
    receives.  The whole sweep costs the sum over passes of the union
    of the pass's balls: ids close in order tend to be close in the
    graph, so on the ISCAS85 stand-ins at cutoff 6 that is several
    times less than one {!bfs_from} per gate. *)

val popcount : int -> int
(** Number of set bits of a native int (all 63 of them): a two-word
    mask counts as [popcount lo + popcount hi]. *)

val module_separation : undirected -> cutoff:int -> int array -> int
(** [module_separation u ~cutoff gates] is [S(M)]: the sum of
    pairwise separations over all unordered gate pairs of the module. *)

(** {1 Reachability} *)

val reachable_from : Circuit.t -> int array -> bool array
(** Forward reachability over node ids from a seed set. *)
