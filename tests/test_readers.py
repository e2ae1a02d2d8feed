"""Read sizing: ``read_table_dataset`` reads ``exchange.read_width``
blocks, not Ray's default of up to 200.

The fused check pass pays a fixed cost per block, so a read must give
the cluster enough blocks to run in parallel (at least one per CPU) and
no more: Ray's default splits six 50k-document files into ~60 blocks.
It must also never split a tiny file further than Ray itself does, and
many small files share read tasks rather than taking one block each.
"""

import os

import numpy as np
import pyarrow.parquet as pq
import pytest
import ray

from data_linter_ray import synth
from data_linter_ray.exchange import cluster_cpus, read_width
from data_linter_ray.sources.readers import read_table_dataset

FILES, FILE_ROWS = 6, 50_000


@pytest.fixture(scope="module")
def docs_dir(ray_session, tmp_path_factory):
    d = tmp_path_factory.mktemp("docs")
    for i in range(FILES):
        ids = np.arange(i * FILE_ROWS, (i + 1) * FILE_ROWS)
        pq.write_table(
            synth.make_documents_batch({"id": ids}), str(d / f"part-{i:04d}.parquet")
        )
    return str(d)


def test_read_blocks_cover_the_cpus_without_ray_default_inflation(docs_dir):
    cpus = cluster_cpus()
    assert cpus == 4  # the session fixture's cluster
    blocks = read_table_dataset(docs_dir, synth.documents_schema()).materialize()
    assert blocks.count() == FILES * FILE_ROWS
    # Ray may split each file's output once the width exceeds the file
    # count, so the ceiling is twice the width
    assert cpus <= blocks.num_blocks() <= 2 * max(FILES, 2 * cpus)
    # Ray's default on the same files: max(min(200, ~1 MiB blocks), 2 × CPUs)
    assert ray.data.read_parquet(docs_dir).materialize().num_blocks() > 2 * max(
        FILES, 2 * cpus
    )


def test_tiny_file_gets_no_more_blocks_than_ray_default(ray_session, tmp_path):
    path = str(tmp_path / "land.parquet")
    pq.write_table(synth.make_documents_batch({"id": np.arange(2_000)}), path)
    sized = read_table_dataset(path, synth.documents_schema()).materialize()
    default = ray.data.read_parquet(path).materialize()
    assert sized.count() == default.count() == 2_000
    assert sized.num_blocks() <= default.num_blocks()


def test_read_width_rule(ray_session, tmp_path):
    cpus = cluster_cpus()
    paths = []
    for i in range(3):
        p = str(tmp_path / f"f{i}.parquet")
        pq.write_table(synth.make_documents_batch({"id": np.arange(10)}), p)
        paths.append(p)
    # a file, a list of files, a directory; hidden files are not data
    open(os.path.join(tmp_path, ".hidden"), "w").write("x")
    assert read_width(paths[0]) == 2 * cpus
    assert read_width(paths) == read_width(str(tmp_path)) == max(3, 2 * cpus)
    many = [str(tmp_path / f"g{i}.parquet") for i in range(3 * cpus)]
    assert read_width(many) == 2 * cpus  # no block per file: tasks take several
    # past the maximum block size, the decoded-bytes estimate rules
    ctx = ray.data.DataContext.get_current()
    saved = ctx.target_max_block_size
    ctx.target_max_block_size = 1024
    try:
        decoded = 4 * sum(os.path.getsize(p) for p in paths)
        assert read_width(paths) == max(3, 2 * cpus, -(-decoded // 1024))
        assert read_width(paths) > 2 * cpus
    finally:
        ctx.target_max_block_size = saved
