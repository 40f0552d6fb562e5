let build rng rings = Symphony.build_canonical rng rings
