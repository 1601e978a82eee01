"""Run the RSS-bounded CLI steps of CI from one table.

Each row runs one ``cyclewall`` command under ``timeout``, hashes its
stdout as it streams, and reads the peak RSS of the command from its own
``wait4`` usage (so one row's peak never shows in another's).  A row passes
when the exit code, the stdout sha256 and the bound on the peak RSS all
hold.  Every row runs; the script exits 1 if any failed.

usage: python3 .github/rss_bounded_runs.py
"""

import hashlib
import os
import subprocess
import sys

C5_Z3 = "perfbench/presentations/c5_z3.json"
C5_S3 = "perfbench/presentations/c5_s3.json"
C6_MIXED = "perfbench/presentations/c6_mixed.json"

# (name, argv, exit code, stdout sha256, timeout in s, peak RSS bound in MB)
ROWS = [
    # the hyperplane audit reads X' in one pass over the squares; bounded
    # at 1.2 x the 17.5 MB measured with the value types written by hand
    # (19.1 MB with dataclasses, 20.1 MB when it 2-colored each class on
    # its own)
    ("Radius-3 walls report is byte-identical",
     ["verify", "--suite", "walls", "--radius", "3", "--depth", "3", "--seed", "0",
      "--presentation", C5_Z3], 0,
     "860a0f32720d73970d152c31d6e787913627f277eb413d154a979351ef14af5b", 60, 21),
    # bounded at 1.2 x the 17.7 MB measured with the value types written
    # by hand (18.5 MB with dataclasses, 20.1 MB when the row was added)
    ("Radius-3 davis report is byte-identical",
     ["verify", "--suite", "davis", "--radius", "3", "--presentation", C6_MIXED], 0,
     "d47cd475a8cadd53caf011e6037c5acf56899bddc66ae2b024315377955d7dff", 60, 21),
    # the rebuild on an even n: each conjugator word is numbered and
    # scanned once, and each far end is read by list index, with no join
    # taken (17.3-17.9 MB measured so; 17.9-18.0 MB when each node's words were
    # looked up in a (base, word) dict); bounded at 1.2 x the 17.7 MB
    # measured with the value types written by hand (19.3 MB with
    # dataclasses, 21.6 MB when the edge cosets were bucketed, 26.0 MB when
    # the row was added)
    ("Radius-3 c6_mixed algebraic report is byte-identical",
     ["verify", "--suite", "algebraic", "--radius", "3", "--depth", "3", "--seed", "0",
      "--presentation", C6_MIXED], 0,
     "8a2f0704926f7773e617cd196f4ba4537eb17eb5272a0f4bfd0a9c7d7ad104d0", 60, 21),
    # the export reads the ball's integer cell table and makes no cell
    # object; bounded at 1.2 x the 33.0 MB measured with the value types
    # written by hand (34.9 MB with dataclasses, 43.7 MB when the cells
    # were built)
    ("Radius-5 ball is byte-identical",
     ["ball", "--radius", "5", "--presentation", C5_Z3], 0,
     "efeabba424b46d1b8cf3570d56e8996cdaf2e2cb597b2aaeb615406be2695596", 60, 40),
    # the export is written in record batches from the ball's integer cell
    # table, so the run's peak RSS follows the table, not its 67 MB text
    # (49.4 MB measured; 57.8 MB when the cells were built, 289 MB when the
    # text was built as one string)
    ("Radius-5 subdivided ball is byte-identical and streamed",
     ["ball", "--radius", "5", "--subdivide", "--presentation", C5_Z3], 0,
     "481c7441c50a3080205789581cbac5814aa5ffb6eaa33e7f9a7aae38df79acaa", 60, 56),
    # the dot export writes X' from the polygonal ball's cells, as the JSON
    # export does, so no square ball is built; bounded at 1.2 x the 33.1 MB
    # measured with the value types written by hand (35.1 MB with
    # dataclasses, 41 MB when the row was added, 74 MB when the square ball
    # was built)
    ("Radius-4 subdivided dot export is byte-identical",
     ["ball", "--radius", "4", "--subdivide", "--format", "dot", "--presentation", C6_MIXED], 0,
     "c27ecd63c46a2998e9d158f8e5f6d6e997e6bb14f60e5639b4a443dc9557cc5a", 60, 40),
    # the X' audits read the table's polygon columns and write no square
    # out; bounded at 1.2 x the 24.3 MB measured so (27.1-27.5 MB when
    # they read the ball's integer squares through an index of the squares
    # at each vertex, 41.7 MB when a stable sort built the index, 43.8 MB
    # with dataclasses, 64.6 MB when the row was added, 159.0 MB when they
    # built the square ball of cell objects)
    ("Radius-5 davis report is byte-identical",
     ["verify", "--suite", "davis", "--radius", "5", "--depth", "3", "--seed", "0",
      "--presentation", C5_Z3], 0,
     "fe24529d6362cbbe415ace9ab86c70167789a42e270e0177280924394e0b8b94", 60, 29),
    # the one diagrams report above radius 2: the sampled loops are filled
    # with each run read off its polygon's corner record; bounded at 1.2 x
    # the 27.9 MB measured then (27.8-28.0 MB with the two-way match from
    # every start)
    ("Radius-5 diagrams report is byte-identical",
     ["verify", "--suite", "diagrams", "--radius", "5", "--depth", "3", "--seed", "0",
      "--presentation", C5_Z3], 0,
     "6d8094a8d06aab1f9449d39a40c4b082a80e1c92b38164aaae428a7f4230af1c", 60, 33),
    # the walls audits read the walls, X' and the polygons, and build no
    # incidence map; the hyperplane audit reads each square's halves off the
    # polygon columns; the stabilizer and fixator rows read one count per
    # wall and keep no per-wall stabilizer or parabolic ball; bounded at
    # 1.2 x the 67.8-67.9 MB measured so (74.4 MB with the per-wall
    # searches, 71.6 MB when that row's bound was set, 77.0-77.1
    # MB when X' kept its square records and their index, 75.6 MB with
    # each wall's stabilizer read off its key, 76.1 MB with the transporter
    # loop over pairs of wall edges, 77.1 MB with the value types written
    # by hand, 79.1 MB with dataclasses, 108.9 MB when the row was added,
    # 118.3 MB when the shared-polygon audit read the incidence maps)
    ("Radius-5 walls report is byte-identical",
     ["verify", "--suite", "walls", "--radius", "5", "--depth", "3", "--seed", "0",
      "--presentation", C5_Z3], 0,
     "d327e264313123beddc6cdf126aa55127d5e78f8c917b1d2a1a1086c4d03a8c2", 120, 81),
    # the walls and the crossing graph are read off the ball's integer
    # table, and no cell object is made; bounded at 1.2 x the 50.0 MB
    # measured with one count per wall for the stabilizer and fixator rows
    # (50.2-50.3 MB with the per-wall searches, 51.3 MB measured with X'
    # squares read off the polygon columns, 52.0-52.2 MB
    # when X' kept its square records, 51.5 MB measured with the value
    # types written by hand, 52.3 MB with dataclasses, 60.7 MB before the
    # row was added)
    ("Radius-4 c6_mixed walls report is byte-identical",
     ["verify", "--suite", "walls", "--radius", "4", "--depth", "3", "--seed", "0",
      "--presentation", C6_MIXED], 0,
     "cc5b97f22b1c5ca77a10f4cb3a61475f07fe65b99001156bcc1b22e3e6e357e0", 120, 60),
    # the walls audits on a non-abelian vertex group (S3 at vertex 2); the
    # hyperplane audit pairs each square's opposite sides by place, read off
    # the polygon columns once the table passes its column check
    # (27.7 MB measured with one count per wall for the stabilizer and
    # fixator rows, 28.2-28.3 MB with the per-wall searches, 27.9-28.0 MB
    # before that, 28.8-28.9 MB when it read the square records); bounded at
    # 1.2 x the 27.9 MB measured when the records were added, which 1.2 x
    # 27.7 MB rounds to as well (28.2-28.4 MB when it matched each square's
    # sides by their ends)
    ("Radius-4 c5_s3 walls report is byte-identical",
     ["verify", "--suite", "walls", "--radius", "4", "--depth", "3", "--seed", "0",
      "--presentation", C5_S3], 0,
     "f0059e9777fdf75e7222b6733d194a4e1687be214896d71919ccccf7f28296e6", 60, 33),
    # past the horizon of the former per-wall searches (--depth >= --radius
    # + 2), where 42 stabilizer rows were inconclusive and the run exited 3:
    # one count per wall decides every row; bounded at 1.2 x the 17.6 MB
    # measured
    ("Radius-2 c6_mixed walls report at depth 5 passes and is byte-identical",
     ["verify", "--suite", "walls", "--radius", "2", "--depth", "5", "--seed", "0",
      "--presentation", C6_MIXED], 0,
     "8a1a56a19b60e9b954b3e6686fdead20065e9186f551e241d2a842e19bbde440", 60, 21),
    # the rebuild on an odd n at radius 4, far ends read off word numbers
    # (20.2-20.3 MB measured so; 21.1-21.2 MB with the (base, word) dict);
    # bounded at 1.2 x the 20.8 MB measured with the value types written by
    # hand (22.6 MB with dataclasses, 27.5 MB when the edge cosets were
    # bucketed)
    ("Radius-4 algebraic report is byte-identical",
     ["verify", "--suite", "algebraic", "--radius", "4", "--depth", "3", "--seed", "0",
      "--presentation", C5_Z3], 0,
     "8c94dbb1a2206bf3905efe67babdb0668d687aaa8feca038afc4221a9c4e3415", 60, 25),
    # the rebuild on a non-abelian vertex group (S3 at vertex 2) above
    # radius 2, far ends read off word numbers by list index; bounded at
    # 1.2 x the 21.4 MB measured (22.0-22.1 MB with the (base, word) dict)
    ("Radius-4 c5_s3 algebraic report is byte-identical",
     ["verify", "--suite", "algebraic", "--radius", "4", "--depth", "3", "--seed", "0",
      "--presentation", C5_S3], 0,
     "c3100cc62233406018c4a2c6eb79129e2802a0bdff5315b2f982f689f025b9d0", 60, 26),
    # mediums, the interior skeleton (built once) and the polygons are read
    # off the ball's integer table by id, the rebuild reads each arc's far
    # end off word numbers by list index and keeps it as an id pair with its
    # (label, word), and no conjugator's inverse is kept (44.6-44.8 MB
    # measured so; 45.6 MB with the (base, word) dict); bounded at 1.2 x the 45.3 MB
    # measured with the value types written by hand (48.8 MB with
    # dataclasses, 74.5 MB when the edge cosets were bucketed, 106.7 MB
    # when each arc held a maximal subgroup object, 126.5 MB when the
    # audits read the ball's cell objects)
    ("Radius-5 algebraic report is byte-identical",
     ["verify", "--suite", "algebraic", "--radius", "5", "--depth", "3", "--seed", "0",
      "--presentation", C5_Z3], 0,
     "fb679ca0bd03544245e2862d09c5196bacdc6b9a56051fdf26913e95d3baa45c", 60, 54),
    # the rebuild on an even n at radius 4, in vertex ids, far ends read
    # off word numbers (31.3-31.5 MB measured so; 32.6 MB with the (base,
    # word) dict); bounded at 1.2 x the 32.5 MB measured with the
    # value types written by hand (34.2 MB with dataclasses, 50.8 MB when
    # the edge cosets were bucketed, 69.3 MB when each arc held a maximal
    # subgroup object)
    ("Radius-4 c6_mixed algebraic report is byte-identical",
     ["verify", "--suite", "algebraic", "--radius", "4", "--depth", "3", "--seed", "0",
      "--presentation", C6_MIXED], 0,
     "aaedef772ed2326ebd9f2752950a07565ee05361548e51b9dac41c7aa481db36", 60, 39),
    # the rebuild on an even n at radius 5, built once per ball and read by
    # the phi check and the join audit, which calls the join on interior
    # edges, arcs and a sample of far pairs about as many as the edges (of
    # 3,462,396 interior pairs); the rebuild frees its word tables before
    # its walks (128.7-128.8 MB measured so; 133.4-133.5 MB when it kept
    # them, 129.7-129.8 MB with the (base, word) dict); bounded at 1.2 x
    # the 127.8 MB measured (129.3 MB when the join audit called the join
    # on every interior pair)
    ("Radius-5 c6_mixed algebraic report is byte-identical",
     ["verify", "--suite", "algebraic", "--radius", "5", "--depth", "3", "--seed", "0",
      "--presentation", C6_MIXED], 0,
     "61ae1b14eb5659832f90f77695ba4efe5b4fe48a2371da01aac27ab3abf0a02a", 60, 153),
    # the ball where the polygon-pair audit costs most: it reads the
    # table's polygon columns and visits no pair of polygons, and the X'
    # audits read the same columns, with no square written out; bounded at
    # 1.2 x the 48.1 MB measured so (47.9-48.1 MB; 61.0-61.2 MB when X'
    # kept its square records and their index, 60.2-60.4 MB before that
    # with the X-edges' end codes held as a list, 57.8-57.9 MB when the
    # pair audit intersected every pair of polygons at each X-vertex)
    ("Radius-5 c6_mixed davis report is byte-identical",
     ["verify", "--suite", "davis", "--radius", "5", "--depth", "3", "--seed", "0",
      "--presentation", C6_MIXED], 0,
     "07253ee49d9ab9063363888517e92d2ce0163b580999839807318a7e0ad998da", 60, 58),
]


def run(argv: list[str], seconds: int) -> tuple[int, str, float]:
    """(exit code, stdout sha256, peak RSS in MB) of ``cyclewall argv``."""
    proc = subprocess.Popen(["timeout", str(seconds), "cyclewall", *argv],
                            stdout=subprocess.PIPE)
    digest = hashlib.sha256()
    for chunk in iter(lambda: proc.stdout.read(1 << 16), b""):
        digest.update(chunk)
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, digest.hexdigest(), usage.ru_maxrss / 1024


def main() -> int:
    failed = 0
    for name, argv, want_rc, want_digest, seconds, bound_mb in ROWS:
        rc, digest, rss_mb = run(argv, seconds)
        ok = rc == want_rc and digest == want_digest and rss_mb <= bound_mb
        failed += not ok
        print(f"{'ok  ' if ok else 'FAIL'} {name}: exit {rc}, peak RSS {rss_mb:.1f} MB "
              f"(bound {bound_mb}), sha256 {digest}", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
